(** Vector timestamps over process interval indices.

    [vt.(i) = x] means "all intervals of processor [i] up to and including
    index [x] are known". Indices start at 0; the empty history is [-1]. *)

type t

val create : nprocs:int -> t

val copy : t -> t

val nprocs : t -> int

val get : t -> int -> int

val set : t -> int -> int -> unit

(** Pointwise maximum, in place on the first argument. *)
val merge_into : t -> t -> unit

(** [leq a b] iff [a.(i) <= b.(i)] for all [i] (the happened-before-or-equal
    partial order on cuts). *)
val leq : t -> t -> bool

(** [dominates a b] = [leq b a]. *)
val dominates : t -> t -> bool

(** No intervals recorded: every component still at the initial [-1]. *)
val is_initial : t -> bool

val equal : t -> t -> bool

(** Wire/memory footprint: 4 bytes per entry. *)
val size_bytes : t -> int
