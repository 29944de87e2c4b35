(** Per-node processor timelines.

    Each Paragon node has a compute processor and a communication
    co-processor sharing memory. We track the compute processor as a virtual
    clock that application execution and protocol overhead advance, and the
    co-processor as a busy-until timeline serviced in FIFO order. *)

(** The float timelines, nested in their own all-float record so stores
    stay unboxed on the per-memory-access hot path. *)
type clocks = {
  mutable clock : float;  (** Compute-processor virtual time (us). *)
  mutable coproc_busy : float;  (** Co-processor busy until this time. *)
}

type t = {
  id : int;
  ck : clocks;
  mutable interrupts : int;  (** Compute-processor interrupts serviced. *)
  mutable coproc_requests : int;  (** Requests serviced by the co-processor. *)
}

val create : int -> t

(** Bring the compute clock up to at least [time] (e.g. when a blocked
    process resumes on a message arrival). *)
val sync_to : t -> float -> unit

(** [interrupt_service t ~arrival ~cost] models an incoming request serviced
    by the compute processor: charges interrupt entry plus [cost] to the
    node's timeline and returns the completion time (from the requester's
    point of view, [arrival + interrupt + cost]). *)
val interrupt_service : t -> interrupt:float -> arrival:float -> cost:float -> float

(** [coproc_service t ~dispatch ~arrival ~cost] models a request serviced by
    the communication co-processor: it starts when both the request has
    arrived and the co-processor is free, and does not touch the compute
    clock. Returns the completion time. *)
val coproc_service : t -> dispatch:float -> arrival:float -> cost:float -> float
