(** Critical-path profiler: exact blame attribution over a causal trace.

    Requires a sink recorded with {!Config.trace_spans} on (the [--profile]
    flag): the {!Trace.Wait_begin}/[Wait_end] spans and the
    {!Trace.Msg_send}/[Msg_recv] pairs that {!Trace.iter_linked} reads are
    the dependency DAG this module walks.

    {!analyze} starts at the last stored event's node and time and walks
    the chain of dependencies backwards: time since the node's last wait
    ended is local execution; a wait completed by a message attributes the
    segment back to the matched send time to the wait's Figure-3 bucket and
    jumps to the sender; a wait with no completing message attributes its
    full length and continues on the same node. Every microsecond of the
    run lands in exactly one bucket — [local + data + lock + barrier + gc]
    telescopes to [cp_finish] — so the breakdown answers "what would I have
    to speed up to make the {e run} faster", not "where was time spent on
    average".

    On fault-injected (chaos) runs the FIFO message pairing can shift
    across retransmissions, so blame there is an approximation. *)

(** A page or lock with the on-path wait attributed to it. *)
type resource_blame = {
  rb_id : int;  (** Page or lock id. *)
  rb_wait : float;  (** On-path wait, us. *)
  rb_count : int;  (** On-path waits (for locks: handoff-chain length). *)
}

(** Per-epoch barrier slack: who arrived last and by how much. *)
type epoch_slack = {
  es_epoch : int;
  es_straggler : int;  (** Last node to arrive. *)
  es_spread : float;  (** Last arrival minus first arrival, us. *)
  es_last : float;  (** Last arrival time, us. *)
}

type t = {
  cp_finish : float;  (** End-to-end path length, us (= run finish time). *)
  cp_end_node : int;
  cp_local : float;  (** On-path execution outside waits (compute + protocol). *)
  cp_data : float;  (** On-path page/diff fetch wait. *)
  cp_lock : float;
  cp_barrier : float;
  cp_gc : float;
  cp_hops : int;  (** Cross-node jumps the path took. *)
  cp_segments : int;
  cp_top_pages : resource_blame list;  (** Top-k pages by on-path fetch wait. *)
  cp_top_locks : resource_blame list;  (** Top-k locks by on-path wait. *)
  cp_home_pages : resource_blame list;
      (** Aggregate home waits (nested inside outer lock/barrier spans;
          informational, not part of the path partition). *)
  cp_epochs : epoch_slack list;
}

(** [analyze sink] walks the dependency DAG recorded in [sink], from the
    last stored event's node and timestamp. The per-resource tables hold
    the top 5. *)
val analyze : Trace.sink -> t

(** The report's ["critical_path"] section. *)
val schema : t Schema.t

(** [Schema.encode schema]. *)
val to_json : t -> Json.t

(** Human-readable blame table (the [--profile] output). *)
val render : t -> string
