type t = int array

let create ~nprocs = Array.make nprocs (-1)

let copy = Array.copy

let nprocs = Array.length

let get t i = t.(i)

let set t i v = t.(i) <- v

let merge_into t other =
  if Array.length t <> Array.length other then
    invalid_arg "Vclock.merge_into: size mismatch";
  for i = 0 to Array.length t - 1 do
    if other.(i) > t.(i) then t.(i) <- other.(i)
  done

let leq a b =
  if Array.length a <> Array.length b then invalid_arg "Vclock.leq: size mismatch";
  let rec go i = i >= Array.length a || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

let dominates a b = leq b a

let is_initial t = Array.for_all (fun x -> x = -1) t

let equal a b = a = b

let size_bytes t = 4 * Array.length t
