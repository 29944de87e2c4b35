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

type batch = Nil | News of { chain : t list; cut : int; rest : batch }

let news chain ~cut rest =
  match chain with iv :: _ when iv.index > cut -> News { chain; cut; rest } | _ -> rest

let rec append a b = match a with Nil -> b | News n -> News { n with rest = append n.rest b }

(* Tail-recursive over the records, so a chain of any length is safe. *)
let rec fold_prefix f cut acc = function
  | iv :: rest when iv.index > cut -> fold_prefix f cut (f acc iv) rest
  | _ -> acc

let rec fold_batch f acc = function
  | Nil -> acc
  | News { chain; cut; rest } -> fold_batch f (fold_prefix f cut acc chain) rest

let batch_length b = fold_batch (fun n _ -> n + 1) 0 b

let batch_bytes b = fold_batch (fun n iv -> n + size_bytes iv) 0 b

let iter_batch f b = fold_batch (fun () iv -> f iv) () b
