(** Typed protocol trace events and the bounded in-memory sink.

    Every observable protocol action — page fetches, diff create/apply/
    flush, write notices, lock traffic, barrier phases, home migration, GC,
    raw message send/receive — is a {!kind} carrying its structured fields
    (page / lock ids, peer nodes, byte counts). The runtime wraps kinds
    into {!event}s stamped with the emitting node and its simulated clock
    (microseconds) and pushes them into a {!sink}; the exporters in
    {!Export} then serialize the sink to JSONL or Chrome [trace_event]
    format.

    The human-readable trace of [svm_run -t] is a consumer of this stream:
    a sink {e tap} prints, for each event, its {!legacy_line} — exactly
    what the old string-based tracer printed ([None] for kinds that had no
    legacy line, such as message send/receive). *)

(** Figure-3 wait bucket of a {!Wait_begin}/{!Wait_end} span. [Wb_home]
    annotates a home-wait nested inside an outer lock/barrier wait (the
    node stays blocked under the outer bucket while in-flight diffs reach
    its own master copies). *)
type wait_bucket = Wb_data | Wb_lock | Wb_barrier | Wb_gc | Wb_home

(** Stable lowercase tag of the bucket (["data"] | ["lock"] | ["barrier"] |
    ["gc"] | ["home"]), as serialized in exports. *)
val bucket_name : wait_bucket -> string

type kind =
  | Page_fetch of { page : int; home : int }  (** Home-based fetch request. *)
  | Page_fetch_pending of { page : int }  (** Home defers a fetch: flush behind. *)
  | Batch_fetch of { page : int; home : int; pages : int }
      (** Batched fault handling ([--fault-batch] > 1): [pages] adjacent
          invalid pages starting at [page] pulled in one round trip. *)
  | Full_page_fetch of { page : int; source : int }  (** Homeless base-copy fetch. *)
  | Diff_request of { page : int; writer : int; intervals : int }
  | Diff_create of { page : int; words : int; bytes : int }
  | Diff_apply of { page : int; words : int; bytes : int }
  | Diff_flush of { page : int; writer : int; index : int; bytes : int }
      (** A flushed diff applied to the home's master copy. *)
  | Au_stamp of { page : int; writer : int; index : int }
      (** AURC release timestamp reaching the home. *)
  | Eager_update of { page : int; writer : int; bytes : int }
      (** Eager-RC push applied at a copyset member. *)
  | Write_notice of { writer : int; index : int; pages : int }
      (** One received interval record processed ([pages] = pages noticed). *)
  | Interval_end of { index : int; pages : int list }
  | Lock_acquire of { lock : int; remote : bool }
  | Lock_grant of { lock : int; dst : int; intervals : int }
  | Lock_queued of { lock : int; requester : int }
  | Home_wait of { page : int }  (** Blocked on own home copy's in-flight diffs. *)
  | Barrier_arrive of { epoch : int; intervals : int }
  | Barrier_release of { epoch : int; gc : bool }
  | Home_migration of { page : int; dst : int }
  | Gc_start of { mem_bytes : int }
  | Gc_done
  | Msg_send of { dst : int; bytes : int; update : int }
  | Msg_recv of { src : int; bytes : int; update : int }
  | Msg_drop of { dst : int; seq : int; bytes : int; ack : bool }
      (** Chaos: the network lost a copy ([ack] = a lost acknowledgement). *)
  | Msg_retransmit of { dst : int; seq : int; retries : int }
      (** Transport timeout: the packet went out again. *)
  | Msg_ack of { dst : int; upto : int }
      (** Cumulative transport acknowledgement sent to [dst]. *)
  | Msg_duplicate_dropped of { src : int; seq : int }
      (** Receiver-side dedup discarded an already-seen sequence number. *)
  | Watchdog_stall of { blocked : int; inflight : int }
      (** No-progress watchdog: quiescent engine with unfinished nodes, or
          a transport retry-cap breach. *)
  | Wait_begin of { span : int; bucket : wait_bucket; resource : int }
      (** A wait interval opens. [span] is a run-unique id pairing it with
          its {!Wait_end}; [resource] is the page (data/home waits), lock
          (lock waits) or epoch (barrier waits) being waited on. Emitted
          only when {!Config.trace_spans} is on. *)
  | Wait_end of { span : int; bucket : wait_bucket; resource : int }
      (** The matching wait interval closes (same gating). *)
  | Mem_sample of { bytes : int }
      (** Periodic sample of the node's live protocol memory (barrier
          arrivals and GC starts), for counter tracks (same gating). *)
  | Diff_reply of { page : int; dst : int; bytes : int }
      (** A writer starts the reply to a {!Diff_request} from [dst]; lets
          the exporter draw the request→reply flow (same gating). *)
  | Node_kill of { node : int }
      (** Chaos node-fault schedule: the node crash-stopped — its inbound
          and outbound links are silenced from now on. *)
  | Msg_peer_dead of { peer : int; seq : int; bytes : int }
      (** A send or in-flight packet abandoned because [peer] is dead
          ([seq] = -1 on the transport-less fast path). *)
  | Failover of { page : int; from_ : int; to_ : int }
      (** The failure detector promoted replica [to_] to primary for
          [page] after home [from_] died. *)
  | Repl_update of { page : int; dst : int; bytes : int }
      (** Replication: a diff payload streamed to backup [dst]
          (primary-backup scheme, or a primary-local write under either
          scheme). *)
  | Repl_inval of { page : int; dst : int }
      (** Replication: an invalidation record sent to backup [dst]
          (invalidation scheme). *)
  | Suspect of { peer : int }
      (** Heartbeat detector: the emitting node has not heard [peer] for
          longer than the suspicion timeout. *)
  | Refute of { peer : int }
      (** Heartbeat detector: a ping from the suspected [peer] arrived —
          the suspicion was false and is retracted. *)
  | Depose of { node : int }
      (** A strict majority of live members suspect [node]: it is removed
          from the membership view and its pages fail over (attributed to
          the node whose suspicion completed the quorum). *)
  | Rejoin of { node : int }
      (** A falsely-deposed node was heard from again: it re-enters the
          membership, discards its stale home authority, and re-fetches
          re-homed pages as an ordinary replica. *)
  | Fenced_fetch of { page : int; requester : int }
      (** A fetch serve refused because the serving node's authority over
          [page] was stale (the page was re-homed since the request was
          accepted) — the epoch fence that prevents split-brain serves. *)

type event = {
  time : float;  (** Simulated time, microseconds. *)
  node : int;  (** Emitting node ([dst] for {!Msg_recv}). *)
  kind : kind;
}

(** [describe k] is the kind's one description: its stable snake_case tag
    (the ["ev"] field in exports); the template of its [-t] line, whose
    [{field}] holes {!legacy_line} fills from the fields, or [None] for
    kinds the legacy tracer never reported; and its structured fields, in a
    fixed order, built when the function is called. *)
val describe : kind -> string * string option * (unit -> (string * Json.t) list)

(** The first component of {!describe}; it builds no fields. *)
val kind_name : kind -> string

(** One event as a flat JSON object: [ts], [node], [ev], then the kind's
    fields. *)
val to_json : event -> Json.t

(** The legacy tracer's line for the event without its timestamp:
    ["[node N] "] followed by the kind's filled template, exactly what the
    old string tracer printed; [None] for kinds it never reported. *)
val legacy_line : event -> string option

(** {1 Bounded sink} *)

type sink

(** The capacity {!create_sink} defaults to: 1,000,000 events. *)
val default_capacity : int

(** [create_sink ?capacity ?tap ()] holds up to [capacity] events (default
    {!default_capacity}); later events are counted in {!dropped} but not
    stored, keeping memory bounded on long runs. [tap] is called on every
    event {!emit}ted into the sink, stored or not, so a capacity-0 sink with
    a tap is a pure streaming consumer that retains nothing. Events copied
    in by {!absorb} do not reach the tap. *)
val create_sink : ?capacity:int -> ?tap:(event -> unit) -> unit -> sink

val emit : sink -> event -> unit

(** [absorb dst src] stores [src]'s stored events into [dst] (in order,
    bypassing [dst]'s tap) and adds [src]'s overflow count to [dst]'s. Used
    to merge per-cell sinks of a parallel sweep into one shared sink in a
    deterministic cell order; when both sinks share a capacity, the merged
    contents and drop count are identical to emitting everything into [dst]
    directly. *)
val absorb : sink -> sink -> unit

(** Stored events, in emission order. *)
val events : sink -> event list

(** Iterate stored events in emission order without materializing a list. *)
val iter : sink -> (event -> unit) -> unit

(** [iter_linked sink f] calls [f ev opener] on each stored event in
    emission order. [opener] is the stored event that opened the pair [ev]
    closes:
    - a {!Wait_end}'s {!Wait_begin}, matched by span id;
    - a {!Msg_recv}'s {!Msg_send}, FIFO per (src, dst);
    - a {!Lock_grant}'s remote {!Lock_acquire}, FIFO per (lock, requester);
    - a {!Diff_reply}'s {!Diff_request}, FIFO per (page, writer, requester).

    Every other event gets [None], and so does a closer whose opener was
    not stored. Under fault injection a retransmitted copy can shift a FIFO
    pairing by one. *)
val iter_linked : sink -> (event -> event option -> unit) -> unit

(** Number of stored events. *)
val length : sink -> int

(** The sink's configured capacity. *)
val capacity : sink -> int

(** Events discarded because the sink was full. *)
val dropped : sink -> int

(** Discarded events broken down by {!kind_name}, sorted by name; empty
    when nothing was dropped. Sums to {!dropped} ({!absorb} merges the
    per-kind counts too). *)
val dropped_by_kind : sink -> (string * int) list
