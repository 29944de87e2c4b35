(** Central state of a simulated SVM machine and the primitives every
    protocol module builds on: per-node protocol state, the event engine,
    the network, message delivery, request service, and the blocking /
    resuming of per-node application processes.

    {1 Timing model}

    Each node's compute processor is a virtual clock ([mach.clock]);
    servicing an incoming request on it adds (interrupt + cost) to that
    clock while the reply is timed from the request's arrival. The
    communication co-processor is a separate FIFO busy-until timeline.
    Protocol {e state} mutations happen in event-execution order, which
    respects causality because every causal chain crosses messages with
    strictly positive latency (see DESIGN.md). *)

(** What a suspended application process is waiting for; selects the
    Figure-3 bucket its wait is accounted to. *)
type block_kind = Wait_data | Wait_lock | Wait_barrier | Wait_gc

(** Per-node, per-page protocol state. Homeless protocols use [missing]
    (unapplied write notices) and [applied] (the causally-closed per-writer
    cut merged into the local copy); home-based ones use [needed] (the
    flush level the home must reach before the next fetch); eager RC parks
    in-flight pushes in [rc_backlog]. *)
type page_info = {
  pi_page : int;
  mutable missing : Proto.Interval.t list;
  mutable applied : Proto.Vclock.t;
  mutable needed : Proto.Vclock.t;
  mutable needed_counted : bool;
  mutable rc_backlog : Mem.Diff.t list;
}

(** Home-side state of a page homed at this node: the per-writer flush
    level of the master copy and the fetches waiting for it to advance. *)
type home_page = {
  hp_page : int;
  hp_flush : Proto.Vclock.t;
  mutable hp_pending : pending_fetch list;
}

and pending_fetch = {
  pf_needed : Proto.Vclock.t;
  pf_serve : float -> unit;
  pf_requester : int;
      (** Who asked: lets a deposed ex-home distinguish remote fetches (to
          be fenced and dropped — the requester re-issues against the new
          home) from its own local waits, which must survive the rejoin. *)
}

(** Backup-side state for one page this node backs up ([replicas] > 1).
    [rp_data]/[rp_flush] are the warm copy and the per-writer cut applied
    into it (complete under the [Backup] scheme; only the primary's own
    pushed writes under [Inval]). [rp_archive] holds the diffs homeless
    writers stream to the page's replica members — (writer, interval,
    diff, writer vt), newest first, never freed. *)
type replica_page = {
  mutable rp_data : Mem.Words.t option;
  rp_flush : Proto.Vclock.t;
  mutable rp_archive : (int * int * Mem.Diff.t * Proto.Vclock.t) list;
}

(** Distributed-lock state at one node (token forwarding; the manager
    tracks the last requester). *)
type lock_state = {
  mutable lk_token : bool;
  mutable lk_held : bool;
  mutable lk_waiting : bool;
  mutable lk_waiter : (int * Proto.Vclock.t) option;
}

type node_state = {
  id : int;
  slowdown : float;
      (** Chaos straggler multiplier on compute-processor work; exactly
          [1.0] on fault-free runs. *)
  mach : Machine.Node.t;
  pt : Mem.Page_table.t;
  mutable pinfo : page_info option array;
  vt : Proto.Vclock.t;  (** vt.(i) = latest completed interval of i known. *)
  mutable dirty : int list;  (** Pages written during the current interval. *)
  known : Proto.Interval.t list array;  (** Records per creator, newest first. *)
  own_diffs : (int, (int * Mem.Diff.t * Proto.Vclock.t) list) Hashtbl.t;
  homes : (int, home_page) Hashtbl.t;
  locks : (int, lock_state) Hashtbl.t;
  stats : Stats.t;
  mutable reported : int;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable blocked : block_kind option;
  mutable block_clock : float;
  mutable wait_services : float;
  mutable wait_span : int;
      (** Open wait-span id ([-1] = none / spans off). *)
  mutable wait_resource : int;
      (** Resource of the open span (page, lock or epoch). *)
  mutable rc_acks : int;
  mutable rc_drain : (float -> unit) list;
  mutable in_gc : bool;
  repl : (int, replica_page) Hashtbl.t;  (** Pages this node backs up. *)
  mutable fault_retry : (unit -> unit) option;
      (** Re-issues the blocked fault's fetch; failover bumps [fetch_gen]
          and invokes this to re-route a fetch lost to a dead home. *)
  mutable fetch_gen : int;
      (** Generation of the in-flight fault fetch; reply handlers from a
          superseded generation discard themselves on arrival. *)
  mutable stall_mark : float;
      (** Failover time while awaiting resume ([-1] = none); the next
          resume records the difference as this fetch's recovery stall. *)
  mutable finished : bool;
  mutable start_clock : float;
  mutable start_breakdown : Stats.breakdown;
}

type barrier_state = {
  mutable bar_arrived : int;
  mutable bar_queue : (int * Proto.Vclock.t * Proto.Interval.t list) list;
  mutable bar_mem_high : bool;
  mutable bar_epoch : int;
  mutable bar_released : int;
  mutable bar_target : int;
      (** Release-applies expected this epoch: the manager plus every live
          remote arrival. Dead nodes never apply (their releases are
          dropped), so the paranoid-check rendezvous counts only the
          living. *)
}

(** In-progress failover recovery of one re-homed page at its new primary
    (driven by [Replica]): pulled/archived diffs accumulate in [rc_pull]
    until the last writer reply lands; normal flushes arriving mid-recovery
    are stashed in [rc_live] and applied after the causally-sorted pull. *)
type recovery = {
  mutable rc_pull : (int * int * Mem.Diff.t * Proto.Vclock.t) list;
      (** (writer, interval index, diff, writer vt). *)
  mutable rc_live : (int * int * Mem.Diff.t) list;
      (** Flushes stashed in arrival order, newest first. *)
  mutable rc_outstanding : int;  (** Writer replies still awaited. *)
}

(** Pre-registered instrument handles of the metrics flight recorder
    ([--metrics-interval]); opaque — built by {!install_metrics}, read back
    through {!metrics_registry} and the recording hooks below. *)
type metrics_set

(** Serving-workload operation log: every completion latency plus op kind
    counts, allocated lazily at the first {!record_op} so non-serving runs
    carry a single [None]. *)
type op_kind = Op_get | Op_put | Op_txn

type serving = {
  mutable sv_lats : float array;
      (** Unboxed, in completion order; the first [sv_count] are live. *)
  mutable sv_count : int;
  mutable sv_gets : int;
  mutable sv_puts : int;
  mutable sv_txns : int;
}

type t = {
  cfg : Config.t;
  layout : Mem.Layout.t;
  engine : Sim.Engine.t;
  net : Machine.Network.t;
  nodes : node_state array;
  mutable next_addr : int;
  home_tbl : (int, int) Hashtbl.t;
  alloc_tbl : (int, int) Hashtbl.t;
  keeper_tbl : (int, int) Hashtbl.t;
  copyset_tbl : (int, int array) Hashtbl.t;
  roots : (string, int) Hashtbl.t;
  scratch_tbl : (int, unit) Hashtbl.t;
  lock_last : (int, int) Hashtbl.t;
  channels : float array;  (** (src * nprocs + dst) -> last arrival. *)
  barrier : barrier_state;
  migration_prev : (int, int) Hashtbl.t;
  gc_on_done : (int, unit -> unit) Hashtbl.t;
      (** The homeless GC's discard rendezvous: the completion of each node
          whose sweep report reached the manager. *)
  mutable sink : Obs.Trace.sink option;
  mutable next_span : int;  (** Wait-span id allocator (causal layer). *)
  alive : bool array;  (** [false] once the chaos schedule killed the node. *)
  deposed : bool array;
      (** Membership view of the failure detector: [true] while a suspicion
          quorum has voted the node out. Distinct from [alive] (physical
          crash): a falsely-suspected node is deposed but alive, keeps
          executing, and rejoins when the suspicion is refuted. *)
  suspects : bool array array;
      (** [suspects.(by).(peer)]: [by] currently suspects [peer] (heartbeat
          detector only; all [false] under the oracle). *)
  page_epoch : (int, int) Hashtbl.t;
      (** page -> authority epoch, bumped at every promotion; a serve from
          an older epoch is fenced off (no split-brain double-home). *)
  repl_tbl : (int, int array) Hashtbl.t;
      (** page -> replica ranks (home first, then the next node ids mod
          nprocs); populated by {!malloc} only when [replicas] > 1. *)
  mutable failover_stalls : float list;
      (** Per re-routed fetch: resume time minus failover time. *)
  failover_at : (int, float) Hashtbl.t;  (** page -> last failover time. *)
  recovering : (int, recovery) Hashtbl.t;
      (** page -> in-progress failover recovery at the promoted primary. *)
  chaos : Machine.Chaos.t option;  (** Fault plan; [None] = fault-free run. *)
  mutable transport : Machine.Transport.t option;
      (** Reliable transport over the chaotic network; installed iff [chaos]
          is, so fault-free runs use the pre-chaos send path unchanged. *)
  mutable metrics : metrics_set option;
      (** Sampled flight recorder; installed iff [metrics_interval] > 0, so
          default runs carry no metrics work on any path. *)
  mutable serving : serving option;
      (** Serving-workload op log; installed lazily at the first
          {!record_op}. *)
  frames : Mem.Words.free_list;
      (** Free page frames for home-fetch snapshots (poisoned under
          [Config.paranoid]); see [Faults.install_copy]. *)
}

(** The effects through which application processes enter the runtime; only
    operations that may suspend the process are effects. *)
type _ Effect.t +=
  | Lock_eff : int -> unit Effect.t
  | Barrier_eff : unit Effect.t
  | Read_fault_eff : int -> unit Effect.t
  | Write_fault_eff : int -> unit Effect.t

(** Raised by the runtime when the event queue drains with unfinished
    processes (e.g. mismatched barriers); carries a diagnosis. *)
exception Deadlock of string

(** Fixed per-message header, bytes. *)
val header_bytes : int

val create : Config.t -> t

val nprocs : t -> int

val costs : t -> Machine.Costs.t

(** Protocol predicates (from the configuration). *)

val home_based : t -> bool

val overlapped : t -> bool

val aurc : t -> bool

val eager_rc : t -> bool

(** Homeless with lazy diff retention (LRC/OLRC): the protocols that need
    garbage collection. *)
val homeless_lazy : t -> bool

(** Current simulated time. *)
val now : t -> float

(** [install_metrics t reg] registers the full instrument set (traffic,
    fault and replication counters; in-flight/event-set/protocol-memory
    gauges; the five latency histograms; fault/diff/home page heatmaps)
    into [reg] and arms every recording hook. Call before the run starts. *)
val install_metrics : t -> Obs.Metrics.t -> unit

(** The registry handed to {!install_metrics}, if any. *)
val metrics_registry : t -> Obs.Metrics.t option

(** Sample the gauges (transport in-flight packets, engine event-set size,
    per-node protocol memory) at simulated [time]. No-op when metrics are
    off. *)
val sample_metrics : t -> time:float -> unit

(** {1 Structured observability}

    Protocol modules report what they do as typed {!Obs.Trace.kind} events,
    which flow to the run's sink when one is installed. *)

(** Whether a sink is installed; hot paths check this before constructing
    event payloads. *)
val observing : t -> bool

(** Emit an event attributed to [node] at its current virtual clock
    (no-op when nothing is observing). *)
val event : t -> node_state -> Obs.Trace.kind -> unit

(** Emission with explicit attribution (message arrivals, where the
    receiving node's clock has not been synced yet). *)
val event_at : t -> node:int -> time:float -> Obs.Trace.kind -> unit

(** {1 Recording}

    The one place a protocol fact is counted: each function bumps the
    fact's {!Stats} counters, feeds its {!Obs.Metrics} series when the
    recorder is installed, and emits its trace event (built only under a
    sink). Messages are recorded in {!send}, waits in {!resume} and
    {!rebucket_block}. Events go at the node's clock unless [time] is
    given. *)

(** A trapped access: the [faults] series and heatmap, and [write_faults]
    when [write]. *)
val record_fault : t -> node_state -> page:int -> write:bool -> unit

(** [read_misses]: a fault that fetches or collects its page. *)
val record_read_miss : node_state -> unit

(** A home fetch with [extras] piggybacked pages ([page_fetches],
    [batch_prefetches]; [Page_fetch], and [Batch_fetch] if [extras > 0]). *)
val record_page_fetch : t -> node_state -> page:int -> home:int -> extras:int -> unit

val record_full_page_fetch : t -> node_state -> page:int -> source:int -> unit

val record_fenced_fetch : t -> node_state -> time:float -> page:int -> requester:int -> unit

val record_failover : t -> node_state -> time:float -> page:int -> from_:int -> to_:int -> unit

val record_diff_create : t -> node_state -> Mem.Diff.t -> unit

(** [Diff_apply], and [diffs_applied] when [counted] (eager RC counts its
    push-time applies on arrival, by {!record_eager_update}). *)
val record_diff_apply : t -> node_state -> Mem.Diff.t -> counted:bool -> unit

val record_eager_update : t -> node_state -> writer:int -> Mem.Diff.t -> unit

(** [Diff_flush] at the home, and [diffs_applied] when [applied]. *)
val record_flush :
  t -> node_state -> writer:int -> index:int -> Mem.Diff.t -> applied:bool -> unit

(** AURC: [messages] combined automatic-update messages beyond the one
    {!send} models ([messages], header-only [update_bytes]). *)
val record_au_combined : node_state -> messages:int -> unit

val record_lock_acquire : t -> node_state -> lock:int -> remote:bool -> unit

val record_barrier_arrive : t -> node_state -> epoch:int -> intervals:int -> unit

val record_gc_start : t -> node_state -> unit

(** The node ships the page's master away; the new home [dst] counts it. *)
val record_home_migration : t -> node_state -> page:int -> dst:int -> unit

(** Failover recovery: a pull request or reply carrying [pulled] diffs, or
    the apply of [applied] ([repl_updates], [repl_bytes], [diffs_applied]). *)
val record_recovery : node_state -> pulled:int -> bytes:int -> applied:int -> unit

(** The detector's [by] starts ([raised]) or stops suspecting [peer]. *)
val record_suspicion : t -> by:int -> peer:int -> time:float -> raised:bool -> unit

(** Whether the causal layer is live: {!Config.trace_spans} is set {e and}
    a typed sink is installed. Gates every new-schema event so default
    [--trace-out] JSONL output stays byte-identical to the pre-span
    format. *)
val spans_on : t -> bool

(** Per-page metadata of a node, created on first use. *)
val page_info : t -> node_state -> int -> page_info

(** The page's home node (home-based protocols). *)
val home_of : t -> int -> int

(** Node guaranteed to hold a full copy, for homeless full-page fetches:
    the last GC's keeper, or the allocator before any collection. *)
val keeper_of : t -> int -> int

(** Home-side record of a page homed at [node], created on first use. *)
val home_page : t -> node_state -> int -> home_page

(** {1 Waits on a home's flush level}

    A home serves a page, and a node reads its own master copy, only once
    the master's per-writer flush levels cover what the reader needs
    (paper §2.3). Every such wait parks here; nothing else writes
    [hp_pending]. *)

(** [park_pending hp ~needed ~requester serve] parks [serve] until
    [hp]'s flush level covers [needed]. *)
val park_pending :
  home_page -> needed:Proto.Vclock.t -> requester:int -> (float -> unit) -> unit

(** Serve, at [at], every parked wait the current flush level covers. *)
val serve_pending : home_page -> at:float -> unit

(** Remove and return every parked wait (a deposed home rejoining). *)
val take_pending : home_page -> pending_fetch list

(** [await_own_master t node hp k]: [node] waits, inside a [Wb_home] span,
    until its own master copy [hp] covers the page's [needed] level; [k]
    then runs at the node's synced clock. *)
val await_own_master : t -> node_state -> home_page -> (unit -> unit) -> unit

(** {1 Causal order of diffs} *)

(** [causal_key vt ~writer ~index] is [(sum of vt's entries, writer,
    index)]. The sum is strictly monotone in the pointwise order, so the
    key orders every causally ordered pair of intervals: a linear
    extension of causality. *)
val causal_key : Proto.Vclock.t -> writer:int -> index:int -> int * int * int

(** Sort [(writer, index, diff, writer's vt)] by {!causal_key}, stably:
    the order a fault applies collected diffs in (paper §2.1), and failover
    recovery applies pulled ones. *)
val causal_sort :
  (int * int * 'a * Proto.Vclock.t) list -> (int * int * 'a * Proto.Vclock.t) list

(** Simulated cost of applying a diff (proportional to its size). *)
val diff_apply_cost : Machine.Costs.t -> Mem.Diff.t -> float

(** {1 Time charging} *)

val charge_protocol : node_state -> float -> unit

(** Record one completed serving operation ([latency] is completion minus
    scheduled arrival, in microseconds); feeds {!serving_log} and, when
    metrics are on, the [op_latency_us] histogram. Appending to the log
    allocates only when it doubles. *)
val record_op : t -> op_kind -> latency:float -> unit

val serving_log : t -> serving option

(** {1 Messages and request service} *)

(** [send t ~src ~dst ~at ~bytes ~update handler] delivers a message sent at
    time [at]; [handler] runs at the arrival time. [update] is the part of
    [bytes] counted as update traffic. Channels between a (src, dst) pair
    are FIFO, as on a wormhole mesh. *)
val send :
  t ->
  src:node_state ->
  dst:int ->
  at:float ->
  bytes:int ->
  update:int ->
  (float -> unit) ->
  unit

(** Service an incoming request on the node's compute processor (interrupt +
    cost, charged to its protocol bucket); returns the completion time. *)
val serve_compute : t -> node_state -> arrival:float -> cost:float -> float

(** Service on the communication co-processor (FIFO, no compute impact). *)
val serve_coproc : t -> node_state -> arrival:float -> cost:float -> float

(** Placement by protocol: co-processor when overlapped, else compute. *)
val serve : t -> node_state -> arrival:float -> cost:float -> float

(** Protocol work initiated by the node itself: inline on the compute
    processor, or posted to the co-processor when overlapped. Returns the
    completion time. *)
val local_protocol_work : t -> node_state -> cost:float -> float

(** {1 Blocking and resuming application processes} *)

(** [block t node ?resource kind k] suspends the node's process. [resource]
    names what it waits on — the page for [Wait_data], lock for
    [Wait_lock], epoch for [Wait_barrier] (default [0]) — and lands in the
    wait span the causal layer emits when {!spans_on}. *)
val block :
  t ->
  node_state ->
  ?resource:int ->
  block_kind ->
  (unit, unit) Effect.Deep.continuation ->
  unit

(** Close the current wait bucket (and its span) and continue blocking
    under a new kind (barrier wait turning into GC wait). *)
val rebucket_block : t -> node_state -> ?resource:int -> block_kind -> unit

(** Resume the node's suspended process at simulated time [at], accounting
    the wait to the bucket of its block kind. *)
val resume : t -> node_state -> at:float -> unit

(** Processes not yet finished. *)
val blocked_count : t -> int

(** {1 Memory accounting} *)

val missing_entry_bytes : int

val account_interval : node_state -> Proto.Interval.t -> unit

val release_interval : node_state -> Proto.Interval.t -> unit

(** {1 Allocation} *)

(** Allocate page-aligned shared memory; see {!Api.malloc}. *)
val malloc :
  t -> node_state -> ?name:string -> ?home_map:(int -> int) -> ?scratch:bool -> int -> int

(** Whether the page belongs to a [~scratch] allocation (excluded from the
    final-memory digest: its contents are schedule-dependent by design). *)
val is_scratch : t -> int -> bool

val root : t -> string -> int

(** Total allocated shared memory, bytes. *)
val shared_bytes : t -> int

(** {1 Home replication and node liveness} *)

(** Whether this run maintains replica sets ([replicas] > 1). *)
val replicated : t -> bool

(** Whether the node is still up (true until the chaos schedule kills it). *)
val is_alive : t -> int -> bool

(** Voted out by a suspicion quorum (heartbeat detector). Orthogonal to
    {!is_alive}: a deposed node may be perfectly alive (false suspicion)
    and will rejoin once refuted. *)
val is_deposed : t -> int -> bool

(** In the cluster's current membership view: physically up and not voted
    out. Promotion targets and quorum electorates use this, never bare
    {!is_alive}. *)
val is_member : t -> int -> bool

(** Authority epoch of the page: 0 until the first promotion, bumped at
    every one. A node serving the page compares the epoch it held authority
    under with the current one; a mismatch means it was deposed in between
    and must fence. *)
val epoch_of : t -> int -> int

val bump_epoch : t -> int -> unit

(** The page's replica ranks, or [None] when [replicas] = 1. *)
val replica_ranks : t -> int -> int array option

(** First live member of the page's replica set: the promotion target of a
    home-based failover, and the fallback server of homeless protocols. *)
val live_replica : t -> int -> int option

(** Backup-side state of a replicated page at [node], created on first use
    (the replica directory entry is memory-accounted). *)
val replica_page : t -> node_state -> int -> replica_page

(** Crash-stop the node: outbound sends are discarded at the source,
    inbound deliveries dropped on arrival, and (on chaos runs) the
    transport cancels its in-flight packets so no retransmission storm
    follows. Emits {!Obs.Trace.Node_kill}. Idempotent. *)
val kill_node : t -> node:int -> time:float -> unit

(** Keep the page's backups consistent after the primary applied a diff:
    a full-diff stream when [payload] is set or the scheme is [Backup],
    else a header-only invalidation record. Under the inval scheme a
    payload push (the primary's own diff) is archived at the backup with
    its timestamp [vt] (required iff [payload]) rather than applied, so
    failover recovery can order it causally against pulled diffs. No-op at
    [replicas] = 1. *)
val propagate_update :
  t ->
  node_state ->
  page:int ->
  writer:int ->
  index:int ->
  diff:Mem.Diff.t ->
  vt:Proto.Vclock.t option ->
  at:float ->
  payload:bool ->
  unit

(** Homeless replication: stream a retained diff (with interval index and
    vector time) to the page's replica members, which archive it for
    dead-writer / dead-keeper recovery. No-op at [replicas] = 1. *)
val propagate_archive :
  t ->
  node_state ->
  page:int ->
  index:int ->
  diff:Mem.Diff.t ->
  vt:Proto.Vclock.t ->
  at:float ->
  unit

(** {1 Eager RC support} *)

(** The page's copyset phases: 0 = no copy, 1 = fetching, 2 = installed. *)
val copyset : t -> int -> int array

(** Join the copyset (phase 1): pushes from now on must reach this node. *)
val register_copy : t -> node_state -> int -> unit

(** The node's copy installed (phase 2): it may serve fetches. *)
val mark_copy_installed : t -> node_state -> int -> unit

(** Some installed member, if any. *)
val installed_member : t -> int -> int option

(** Run [f] once all of the node's pushed updates are acknowledged. *)
val rc_when_drained : t -> node_state -> (float -> unit) -> unit

(** One acknowledgement arrived; runs the deferred actions at zero. *)
val rc_ack_arrived : t -> node_state -> at:float -> unit
