type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let make n =
  let a = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n in
  Bigarray.Array1.fill a 0.0;
  a

(* Redeclared primitives, specialized to [t]: without flambda, a wrapper
   function would not reliably inline across modules, and a non-inlined
   call boxes the float. As externals, every use site compiles to a direct
   (unboxed) float64 load or store. *)
external length : t -> int = "%caml_ba_dim_1"

external get : t -> int -> float = "%caml_ba_ref_1"

external set : t -> int -> float -> unit = "%caml_ba_set_1"

external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"

external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

let fill (a : t) v = Bigarray.Array1.fill a v

let blit ~src ~dst = Bigarray.Array1.blit src dst

let copy (a : t) =
  let b = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (length a) in
  Bigarray.Array1.blit a b;
  b

let of_array xs =
  let a = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (Array.length xs) in
  Array.iteri (fun i x -> Bigarray.Array1.unsafe_set a i x) xs;
  a

let to_array (a : t) = Array.init (length a) (fun i -> Bigarray.Array1.unsafe_get a i)

let iter f (a : t) =
  for i = 0 to length a - 1 do
    f (Bigarray.Array1.unsafe_get a i)
  done

let iteri f (a : t) =
  for i = 0 to length a - 1 do
    f i (Bigarray.Array1.unsafe_get a i)
  done

type free_list = { poison : bool; mutable frames : t list }

let free_list ~poison = { poison; frames = [] }

let take fl src =
  match fl.frames with
  | frame :: rest ->
      fl.frames <- rest;
      blit ~src ~dst:frame;
      frame
  | [] -> copy src

let release fl frame =
  if fl.poison then begin
    if List.memq frame fl.frames then invalid_arg "Words.release: frame is already free";
    fill frame Float.nan
  end;
  fl.frames <- frame :: fl.frames
