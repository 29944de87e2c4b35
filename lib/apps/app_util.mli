(** Shared helpers for the benchmark applications. *)

exception Verification_failed of string

(** Raise {!Verification_failed} with a formatted message. *)
val failf : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Assert two values agree within a relative error (reductions may be
    reassociated across protocols and node counts), naming the array and
    index otherwise. *)
val check_close : what:string -> ?tol:float -> index:int -> float -> float -> unit

(** Deterministic pseudo-random double in [0, 1), identical for a simulated
    application and its sequential reference. *)
val det_float : seed:int -> int -> float

(** [chunk ~n ~nparts part] is the [(start, stop)] (stop exclusive) of the
    [part]-th contiguous chunk of [0, n); remainders spread over the first
    chunks. *)
val chunk : n:int -> nparts:int -> int -> int * int

(** Owner of index [i] under the same partitioning. *)
val owner_of : n:int -> nparts:int -> int -> int

(** Read [len] shared words starting at [addr] into [buf] (models working
    on registers/cache; the protocol sees only the page accesses). *)
val read_block : Svm.Api.ctx -> addr:int -> len:int -> float array -> unit

val write_block : Svm.Api.ctx -> addr:int -> len:int -> float array -> unit
