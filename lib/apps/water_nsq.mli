(** Water-Nsquared: O(n²) molecular dynamics with a cutoff radius
    (Splash-2 "Water-Nsquared", simplified potentials, same sharing
    structure: contiguous molecule partitions, half-shell pairwise forces,
    per-partition locks to merge force contributions — the migratory
    multiple-writer pattern of the paper's §4.6). *)

type params = {
  molecules : int;
  steps : int;
  cutoff : float;  (** Distance cutoff as a fraction of the box size. *)
  flop_us : float;
  seed : int;
}

val default : params

val name : string

(** Half-shell neighbour count of molecule [i] (every unordered pair is
    enumerated exactly once). *)
val half_shell : int -> int -> int

val body : ?verify:bool -> params -> Svm.Api.ctx -> unit
