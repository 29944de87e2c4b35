(** Water-Spatial: molecular dynamics over a 3-D cell decomposition
    (Splash-2 "Water-Spatial", simplified potentials, same sharing
    structure: processors own contiguous cell slabs, read their neighbours'
    boundary cells, and migrate molecules between cells under per-cell
    locks — the paper's irregular low-communication application). *)

type params = {
  grid : int;  (** Cells per dimension; the cell side is the cutoff. *)
  molecules : int;
  steps : int;
  flop_us : float;
  seed : int;
}

val default : params

val name : string

(** Cell containing a position (clamped to the unit box). *)
val cell_of_pos : params -> float -> float -> float -> int

(** The (up to 27) cells adjacent to [cell], itself included. *)
val neighbours : params -> int -> int list

val body : ?verify:bool -> params -> Svm.Api.ctx -> unit
