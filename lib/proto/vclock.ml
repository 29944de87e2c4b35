(* Every argument names [t]: with the .mli keeping [t] abstract, an
   unannotated [a.(i) <= b.(i)] would compile as a polymorphic comparison
   and a generic array access, a C call per element. Annotated, each is an
   int load and compare. *)
type t = int array

let create ~nprocs : t = Array.make nprocs (-1)

let copy (t : t) : t = Array.copy t

let nprocs (t : t) = Array.length t

let get (t : t) i = t.(i)

let set (t : t) i v = t.(i) <- v

let merge_into (t : t) (other : t) =
  if Array.length t <> Array.length other then
    invalid_arg "Vclock.merge_into: size mismatch";
  for i = 0 to Array.length t - 1 do
    if other.(i) > t.(i) then t.(i) <- other.(i)
  done

let leq (a : t) (b : t) =
  if Array.length a <> Array.length b then invalid_arg "Vclock.leq: size mismatch";
  let rec go i = i >= Array.length a || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

let dominates a b = leq b a

let is_initial (t : t) = Array.for_all (fun x -> x = -1) t

(* [a = b] would stay a polymorphic comparison even on [int array]. *)
let equal (a : t) (b : t) =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let size_bytes (t : t) = 4 * Array.length t
