type t = { node : int; index : int; vt : Vclock.t option; pages : int list }

let make ~node ~index ~vt ~pages = { node; index; vt; pages }

let size_bytes t =
  let vt_bytes = match t.vt with Some vt -> Vclock.size_bytes vt | None -> 0 in
  8 + (4 * List.length t.pages) + vt_bytes

let vt_exn t =
  match t.vt with
  | Some vt -> vt
  | None -> invalid_arg "Interval.causally_before: interval lacks a timestamp"

let causally_before a b =
  Vclock.leq (vt_exn a) (vt_exn b) && not (Vclock.equal (vt_exn a) (vt_exn b))
