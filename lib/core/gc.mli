(** Garbage collection of protocol data (homeless lazy protocols,
    paper §3.5).

    Triggered at a barrier when some node's live protocol memory exceeds
    the configured threshold. Each page's designated keeper (the creator of
    the causally-maximal interval writing it) validates its copy by pulling
    the missing diffs; every other node drops its copy. Nodes rendezvous
    through the barrier manager before discarding diffs and interval
    records, so no validation can miss a diff. *)

(** Per-node entry point, run between the barrier release and the process's
    resumption; [on_done] fires after the global discard phase. *)
val run : System.t -> System.node_state -> on_done:(unit -> unit) -> unit
