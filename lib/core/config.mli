(** Run configuration: protocol choice, machine size and model knobs. *)

(** The four protocols the paper evaluates — [Olrc]/[Ohlrc] are the
    co-processor-overlapped variants of [Lrc]/[Hlrc] — plus [Aurc], the
    Automatic Update Release Consistency protocol (paper 2.2) that HLRC
    emulates in software: writes to non-home pages are propagated to the
    home by write-through hardware (no twins, no diffs, zero software
    overhead on update detection), at the price of per-write traffic.

    [Rc] is eager Release Consistency (paper 2, Munin-style): diffs are
    pushed to every node caching the page when the interval ends, and the
    lock/barrier handoff waits for their acknowledgements — the protocol
    LRC was designed to relax. *)
type protocol = Lrc | Olrc | Hlrc | Ohlrc | Aurc | Rc

(** The paper's four software protocols (its Table 2 columns). *)
val all_protocols : protocol list

(** All implemented protocols, including the hardware-assisted AURC and
    eager RC. *)
val extended_protocols : protocol list

val protocol_name : protocol -> string

(** The command-line spellings {!protocol_of_string} accepts, in
    {!extended_protocols} order — the single source of truth for help and
    error text (["lrc"; "olrc"; "hlrc"; "ohlrc"; "aurc"; "rc"]). *)
val protocol_strings : string list

val protocol_of_string : string -> protocol option

(** Position of the protocol in {!extended_protocols} — the paper's
    LRC/OLRC/HLRC/OHLRC column order (then AURC, RC). Sorting by this keeps
    machine-readable dumps aligned with the tables, which alphabetical
    order by {!protocol_name} does not. *)
val protocol_rank : protocol -> int

(** Home-based protocols maintain a master copy of each page at a home node
    (HLRC/OHLRC); homeless ones keep diffs distributed at the writers. *)
val home_based : protocol -> bool

(** Overlapped protocols offload diff work and remote-request service to the
    communication co-processor. *)
val overlapped : protocol -> bool

(** Fallback home assignment for pages allocated without a placement hint
    (home-based protocols only). *)
type home_policy = Round_robin | Block | Allocator

(** Name of a home-assignment policy (["round_robin"] | ["block"] |
    ["allocator"]), as serialized in JSON reports. *)
val home_policy_name : home_policy -> string

(** How a page's primary keeps its backups consistent ([replicas] > 1).
    [Inval]: the primary sends small invalidation records; backups hold no
    current data and recovery pulls the retained diffs back from the live
    writers (cheap steady state, slower failover). [Backup]: the primary
    streams every applied diff to the backups, which maintain a warm full
    copy (more steady-state traffic, near-instant promotion). *)
type repl_scheme = Inval | Backup

(** Stable name of the scheme (["inval"] | ["backup"]), as accepted on the
    command line and serialized in reports. *)
val repl_scheme_name : repl_scheme -> string

(** The command-line spellings {!repl_scheme_of_string} accepts. *)
val repl_scheme_strings : string list

val repl_scheme_of_string : string -> repl_scheme option

(** How node failures are detected. [Oracle] (the default): failover is
    scheduled by the runtime at kill time + [chaos.detect_delay] —
    deterministic and perfect, spurious failover impossible, and every
    fault-free output byte-identical to before the detector existed.
    [Heartbeat]: nodes exchange timing-model-charged heartbeats
    ({!Machine.Transport.start_heartbeats}); a peer silent past
    [hb_timeout] is {e suspected}, and failover runs only when a strict
    majority of live, non-deposed nodes agree — a real, fallible detector
    that partitions and pauses can fool. *)
type detector = Oracle | Heartbeat

(** Stable name of the detector (["oracle"] | ["heartbeat"]). *)
val detector_name : detector -> string

(** The command-line spellings {!detector_of_string} accepts. *)
val detector_strings : string list

val detector_of_string : string -> detector option

type t = {
  nprocs : int;
  protocol : protocol;
  page_words : int;  (** Words (8 bytes each) per page; default 1024 = 8 KB. *)
  costs : Machine.Costs.t;
  home_policy : home_policy;
  gc_threshold_bytes : int;
      (** Per-node protocol memory that triggers garbage collection at the
          next barrier (homeless protocols only). *)
  coproc_locks : bool;
      (** Extension suggested by the paper's 4.3: service lock requests on
          the communication co-processor (overlapped protocols only),
          reducing a remote acquire from ~1,550 us to ~150 us. Off by
          default, as in the paper's prototypes. *)
  home_migration : bool;
      (** Extension (home-based protocols): at each barrier, re-home pages
          to the dominant writer of the epoch (JIAJIA-style adaptive
          placement). Off by default, as in the paper. *)
  paranoid : bool;
      (** Testing aid: at each barrier completion, assert that all current
          copies of every page are bitwise identical (raises
          {!Invariants.Violation} otherwise). No effect on the simulated
          costs. *)
  chaos : Machine.Chaos.params;
      (** Network fault injection and CPU stragglers. With
          {!Machine.Chaos.none} (the default) the run is fault-free and
          the reliable-transport layer is bypassed entirely, so reports
          are byte-identical to a build without the chaos machinery. *)
  trace_spans : bool;
      (** Emit the causal layer — {!Obs.Trace.Wait_begin}/[Wait_end] spans,
          memory counter samples, and diff-reply correlation events — into
          the trace sink. Off by default so plain [--trace-out] JSONL
          output stays byte-identical to the pre-span schema; turned on by
          [--profile] (and needed by {!Obs.Critical_path}). *)
  fault_batch : int;
      (** Batched fault handling (home-based protocols): on a miss, pull up
          to this many adjacent same-home invalid pages in the one round
          trip serving the faulting page. 1 (the default) keeps today's
          one-page-per-fault behavior byte-identical; the flag only changes
          simulated outcomes when > 1. *)
  replicas : int;
      (** Degree of each page's home replica set ([--replicas K]): the
          original home plus [K - 1] backups at the next node ids (mod
          nprocs), in rank order. 1 (the default) keeps today's
          single-home behavior byte-identical; with K >= 2 a page
          survives the crash of its home — the failure detector promotes
          the next live rank. Home-based protocols replicate the master
          copy per [repl_scheme]; homeless protocols archive every
          writer's streamed diffs at the replica members (both schemes
          behave identically there). *)
  repl_scheme : repl_scheme;
      (** Backup-consistency scheme, meaningful when [replicas] > 1. *)
  metrics_interval : float;
      (** Time-bucket width (simulated microseconds) of the sampled metrics
          flight recorder ([--metrics-interval US]). 0 (the default)
          disables metrics entirely: no registry is created, no sampler
          events are scheduled, and every output stays byte-identical to a
          build without the metrics machinery. *)
  detector : detector;
      (** Failure-detection mode; [Oracle] by default, keeping all
          detector-free outputs byte-identical. *)
  hb_interval : float;
      (** Heartbeat emission period in simulated microseconds
          ([--hb-interval], default 200 us); only meaningful
          with [detector = Heartbeat]. *)
  hb_timeout : float;
      (** Suspicion timeout in simulated microseconds ([--hb-timeout]).
          0 (the default) auto-sizes it from the interval and the chaos
          plan's worst jitter spike — see {!hb_timeout_effective}. *)
}

(** Whether this configuration injects any faults (see
    {!Machine.Chaos.enabled}). *)
val chaos_enabled : t -> bool

(** Whether the reliable transport must be installed: {!chaos_enabled}, or
    the heartbeat detector is selected (its pings and the healing
    retransmissions ride on the transport even in a fault-free run). *)
val transport_enabled : t -> bool

(** The suspicion timeout actually used: [hb_timeout] when positive, else
    [3 * hb_interval + 2 * worst jitter spike + 100] — wide enough that a
    healthy peer is never suspected (the audit runs once per interval and a
    ping can lag a full interval plus jitter). *)
val hb_timeout_effective : t -> float

(** Whether the metrics flight recorder is on ([metrics_interval] > 0). *)
val metrics_enabled : t -> bool

(** Raises [Invalid_argument] with a descriptive message when a knob is out
    of range: [nprocs] or [gc_threshold_bytes] non-positive, [page_words]
    not a positive power of two, [fault_batch] < 1, [metrics_interval]
    negative, an invalid chaos plan (rates outside [0, 1], negative jitter,
    straggler < 1, or a malformed fault schedule — see
    {!Machine.Chaos.validate}; killing or pausing node 0, the lock/barrier
    manager, is rejected there), a scheduled fault naming a
    node >= [nprocs], a partition group holding every node, [hb_interval]
    non-positive, [hb_timeout] negative, [replicas] outside [1, nprocs],
    [replicas] > 1 combined with AURC/RC or with [home_migration], or
    [home_migration] combined with a scheduled kill. *)
val make :
  ?page_words:int ->
  ?costs:Machine.Costs.t ->
  ?home_policy:home_policy ->
  ?gc_threshold_bytes:int ->
  ?coproc_locks:bool ->
  ?home_migration:bool ->
  ?paranoid:bool ->
  ?chaos:Machine.Chaos.params ->
  ?trace_spans:bool ->
  ?fault_batch:int ->
  ?replicas:int ->
  ?repl_scheme:repl_scheme ->
  ?metrics_interval:float ->
  ?detector:detector ->
  ?hb_interval:float ->
  ?hb_timeout:float ->
  nprocs:int ->
  protocol ->
  t
