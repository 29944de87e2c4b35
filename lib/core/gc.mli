(** Garbage collection of protocol data (homeless lazy protocols,
    paper §3.5).

    Triggered at a barrier when some node's live protocol memory exceeds
    the configured threshold. Each page's designated keeper (the creator of
    the causally-maximal interval writing it) validates its copy by pulling
    the missing diffs; every other node drops its copy. Live nodes
    rendezvous through the barrier manager before discarding diffs and
    interval records, so no validation can miss a diff. *)

(** Per-node entry point, run between the barrier release and the process's
    resumption; [on_done] fires after the global discard phase. *)
val run : System.t -> System.node_state -> on_done:(unit -> unit) -> unit

(** [discard_if_reported sys ~at] completes the discard rendezvous, with
    the manager's broadcast leaving at [at], once every live node has
    reported its sweep; otherwise it does nothing. A report calls it, and
    so does a node's death, which may leave the rendezvous waiting only on
    the dead node. *)
val discard_if_reported : System.t -> at:float -> unit
