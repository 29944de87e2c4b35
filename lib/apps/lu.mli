(** Blocked dense LU factorization without pivoting (Splash-2 "LU",
    contiguous-blocks version).

    The matrix is stored block-major so a 32x32 block fills exactly one
    8 KB page; blocks are assigned to processors on a 2-D scatter grid and
    (by default) homed at their owner — the placement the paper's §4.4
    exploits: with one writer per block, home-based protocols create no
    diffs at all. *)

type params = {
  n : int;  (** Matrix dimension; a multiple of [block]. *)
  block : int;  (** Block dimension. *)
  flop_us : float;  (** Simulated cost of one floating-point operation. *)
  seed : int;
  owner_homes : bool;
      (** Home each block's pages at its owner; [false] falls back to the
          configured placement policy (used by the placement ablation). *)
}

val default : params

val name : string

(** Deterministic diagonally-dominant initial matrix, block-major. *)
val init_matrix : params -> float array

(** Word offset of block (bi, bj); [nb] = blocks per dimension. *)
val block_offset : params -> int -> int -> int -> int

(** Sequential reference: the same blocked algorithm on a plain array
    (bit-identical rounding to the parallel run). *)
val reference : params -> float array

(** The SPMD process body. *)
val body : ?verify:bool -> params -> Svm.Api.ctx -> unit
