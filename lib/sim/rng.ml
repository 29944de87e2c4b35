(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. Chosen because it is tiny, fast, splittable and
   has well-understood statistical quality. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let next_seed t =
  t.state <- Int64.add t.state golden_gamma;
  t.state

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = mix64 (next_seed t)

let split t =
  let seed = bits64 t in
  { state = seed }

(* Rejection sampling over 63 uniform bits (Java's nextInt idiom): draw,
   reduce, and retry whenever the draw falls in the short tail
   [2^63 - 2^63 mod bound, 2^63), which a plain [mod] would fold onto the
   low residues and bias them by up to bound/2^63. The overflow test
   [bits - r + (bound - 1) < 0] detects exactly those tail draws. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let b = Int64.of_int bound in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let r = Int64.rem bits b in
    if Int64.compare (Int64.add (Int64.sub bits r) (Int64.sub b 1L)) 0L < 0 then draw ()
    else Int64.to_int r
  in
  draw ()

let float t bound =
  let bits = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 2^53 possible values in [0, 1). *)
  bound *. (bits /. 9007199254740992.0)

(* Zipfian sampler after Gray et al., "Quickly generating billion-record
   synthetic databases" (SIGMOD 1994), as popularized by YCSB: the
   harmonic normalizer [zetan] is computed once at construction, after
   which each draw costs one uniform and one [**]. Rank 0 is the most
   popular key; [theta = 0] degenerates to the uniform distribution. *)

type zipf = {
  z_n : int;
  z_zetan : float;
  z_alpha : float;
  z_eta : float;
  z_half_pow : float; (* 0.5 ** theta *)
}

let zipf_create ~n ~theta =
  if n < 1 then invalid_arg "Rng.zipf_create: n must be >= 1";
  if theta < 0. || theta >= 1. then
    invalid_arg "Rng.zipf_create: theta must be in [0, 1)";
  let zetan = ref 0. in
  for i = 1 to n do
    zetan := !zetan +. (1. /. (float_of_int i ** theta))
  done;
  let zetan = !zetan in
  let half_pow = 0.5 ** theta in
  let zeta2 = 1. +. half_pow in
  (* For n <= 2 the two explicit branches in [zipf] cover every draw, so
     [eta] is never consulted; guard the 0/0 it would otherwise be. *)
  let eta =
    if n <= 2 then 0.
    else
      (1. -. ((2. /. float_of_int n) ** (1. -. theta)))
      /. (1. -. (zeta2 /. zetan))
  in
  {
    z_n = n;
    z_zetan = zetan;
    z_alpha = 1. /. (1. -. theta);
    z_eta = eta;
    z_half_pow = half_pow;
  }

let zipf t z =
  let u = float t 1.0 in
  let uz = u *. z.z_zetan in
  if uz < 1. then 0
  else if uz < 1. +. z.z_half_pow then 1
  else
    let r =
      int_of_float
        (float_of_int z.z_n *. (((z.z_eta *. u) -. z.z_eta +. 1.) ** z.z_alpha))
    in
    (* Floating-point edge as u -> 1 can land exactly on n. *)
    if r >= z.z_n then z.z_n - 1 else if r < 0 then 0 else r
