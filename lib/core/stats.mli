(** Per-node instrumentation: the time breakdowns, operation counts,
    communication traffic and memory figures behind the paper's Tables 2 and
    4-6 and Figures 3-4. *)

(** Execution-time breakdown buckets (paper Figure 3). All in microseconds
    of the node's virtual time. *)
type breakdown = {
  mutable compute : float;  (** Application computation + memory access. *)
  mutable data : float;  (** Waiting for remote pages / diffs. *)
  mutable lock : float;  (** Waiting for lock grants. *)
  mutable barrier : float;  (** Waiting at barriers. *)
  mutable protocol : float;
      (** Twin/diff/write-notice handling and servicing remote requests on
          the compute processor. *)
  mutable gc : float;  (** Garbage collection (homeless protocols). *)
}

val breakdown_zero : unit -> breakdown

val breakdown_copy : breakdown -> breakdown

(** [breakdown_sub a b] = a - b, componentwise (for epoch deltas). *)
val breakdown_sub : breakdown -> breakdown -> breakdown

val breakdown_total : breakdown -> float

(** Operation and traffic counters (paper Tables 4-5). *)
type counters = {
  mutable read_misses : int;  (** Read faults needing remote data. *)
  mutable write_faults : int;
  mutable diffs_created : int;
  mutable diffs_applied : int;
  mutable lock_acquires : int;  (** All acquires, local and remote. *)
  mutable remote_acquires : int;
  mutable barriers : int;
  mutable messages : int;  (** Messages sent by this node. *)
  mutable update_bytes : int;  (** Diff and page payload bytes sent. *)
  mutable protocol_bytes : int;  (** All other bytes sent. *)
  mutable page_fetches : int;
  mutable gc_runs : int;
  mutable home_migrations : int;  (** Pages re-homed to this node. *)
  mutable msg_drops : int;  (** Chaos: copies this node sent that were lost. *)
  mutable msg_retransmits : int;  (** Transport retransmissions by this node. *)
  mutable msg_acks : int;  (** Transport acknowledgements sent by this node. *)
  mutable msg_dup_dropped : int;  (** Duplicates this node received and discarded. *)
  mutable batch_prefetches : int;
      (** Pages piggybacked on a batched fetch ([--fault-batch] > 1). *)
  mutable repl_updates : int;
      (** Replica updates this node sent (diff payloads streamed to
          backups, [--repl-scheme backup], or primary-local pushes). *)
  mutable repl_invals : int;
      (** Invalidation records this node sent to backups
          ([--repl-scheme inval]). *)
  mutable repl_bytes : int;  (** Total replication payload + header bytes sent. *)
  mutable failovers : int;  (** Pages this node was promoted to primary for. *)
  mutable msg_peer_dead : int;
      (** Sends/packets this node abandoned because the peer was dead. *)
  mutable msg_gave_up : int;
      (** Packets this node abandoned at the transport's retry cap — the
          payload will never arrive. *)
  mutable suspicions : int;
      (** Heartbeat detector: peers this node started suspecting. *)
  mutable refutations : int;
      (** Heartbeat detector: suspicions this node retracted after hearing
          the peer again (every one was a false suspicion). *)
  mutable fenced_fetches : int;
      (** Fetch requests this node refused because its authority over the
          page was stale (it had been deposed / the page re-homed): the
          epoch fence that prevents split-brain serves. *)
}

val counters_zero : unit -> counters

(** Full per-node statistics. *)
type t = {
  b : breakdown;
  mutable c : counters;
      (** What the node did since the timing window opened: replaced by a
          zero record at {!Api.start_timing}. *)
  proto_mem : Mem.Accounting.t;  (** Live protocol-data bytes. *)
  mutable epochs : breakdown list;
      (** Snapshot of [b] at each barrier arrival, newest first; consecutive
          differences give per-barrier-epoch breakdowns (Figure 4). *)
}

val create : unit -> t

(** Record a barrier-arrival snapshot. *)
val mark_epoch : t -> unit

(** Per-epoch deltas in chronological order. The first element covers from
    the start of the run to the first barrier. *)
val epoch_deltas : t -> breakdown list

(** [quantile sorted p] is the nearest-rank quantile of an {e ascending}
    sorted array: the element at rank [ceil (p * n)] (1-based, clamped to
    [[1, n]]), so the result is always an observed value and [p = 1.] is
    the maximum; [None] on the empty array, so an absent sample set can
    never be confused with a genuine 0-valued sample. This is the
    convention used by the report's availability and serving percentiles
    and mirrored by the log2 histogram quantiles in [Obs.Metrics]. *)
val quantile : float array -> float -> float option

val pp_breakdown : Format.formatter -> breakdown -> unit
