(** Seeded network/CPU fault injection ("chaos"), as opposed to the *page*
    faults handled by the SVM protocol layer ([Svm.Faults]).

    A {!t} is a deterministic fault plan derived from [params.fault_seed]:
    each directed link [(src, dst)] owns an independent {!Sim.Rng} stream,
    and each node draws one CPU-slowdown multiplier up front, so the set of
    injected faults depends only on the seed and the order of sends on each
    link — never on wall-clock state or on traffic of other links.

    With {!none} (all rates zero, straggler 1.0, empty schedule) the plan is
    {e inert}: {!enabled} is [false] and callers are expected to bypass it
    entirely, keeping the fault-free fast path byte-identical to a build
    without the chaos layer. *)

(** One timed event of the node/link fault schedule. *)
type fault =
  | Kill of { node : int; at : float }
      (** Permanently silence the node's inbound and outbound links from
          [at] (microseconds) on — a crash-stop failure. *)
  | Pause of { node : int; from_ : float; until : float }
      (** Gray failure: the node's links are silenced during
          [[from_, until)] and then heal. Requires the reliable transport
          (and therefore flips {!enabled}). *)
  | Partition of { group : int list; from_ : float; until : float }
      (** Network partition: during [[from_, until)] every link between a
          node in [group] and a node outside it is severed (both
          directions); links within a side are untouched. Heals by
          retransmission, so it flips {!enabled}. The classic generator of
          false suspicions for a heartbeat failure detector. *)

type params = {
  drop_rate : float;  (** Probability a message copy is lost, per link hop. *)
  dup_rate : float;  (** Probability a message is duplicated in flight. *)
  jitter : float;
      (** Extra latency: uniform in [0, jitter) microseconds, with a 1/64
          chance of an 8x spike (heavy-tailed, as on a congested fabric). *)
  straggler : float;
      (** Per-node CPU slowdown cap: each node's compute multiplier is
          drawn uniformly from [1.0, straggler]. 1.0 = no stragglers. *)
  fault_seed : int;  (** Seed of the fault plan (independent of app seed). *)
  faults : fault list;  (** Timed node/link fault schedule; [[]] = none. *)
  detect_delay : float;
      (** Oracle failure-detector latency: with [--detector oracle] (the
          default) failover runs at kill time + [detect_delay], fired by
          the runtime rather than decided from missed messages. The oracle
          is deterministic and perfect — spurious failover is impossible by
          construction. [--detector heartbeat] replaces it with a
          timeout-based detector that can be wrong ({!Transport}). *)
}

(** The inert plan: zero rates, no jitter, no stragglers, no node faults. *)
val none : params

(** The schedule's kills, as [(node, at)] sorted by time. *)
val kills : params -> (int * float) list

(** [to_string f] is the one spelling of a fault, which [svm_run]'s
    [--kill], [--pause] and [--partition] flags read, the report lists and
    replay lines print: ["kill N@T"], ["pause N@T1:T2"] or
    ["partition A,B@T1:T2"], times in microseconds as [%.17g]. *)
val to_string : fault -> string

(** [of_string s] parses {!to_string}'s spelling. It checks the shape
    only; {!validate} checks the values. *)
val of_string : string -> (fault, string) result

(** [enabled p] is [true] iff [p] needs the chaos-aware transport path.
    Deliberately excludes kills: a crash-stop only drops deliveries and
    triggers failover, and must not perturb surviving traffic with
    transport machinery. Pauses and partitions are included — healing a
    gray failure needs retransmission. *)
val enabled : params -> bool

(** [validate p] checks rates are probabilities in [0, 1], [jitter] is
    non-negative, [straggler >= 1.0], and the fault schedule and
    [detect_delay] are well-formed. Rejected outright, each with a one-line
    error: kills or pauses naming node 0 (the lock/barrier manager), a
    pause window overlapping the same node's kill time, empty or
    node-repeating partition groups, and negative/NaN times. *)
val validate : params -> (unit, string) result

(** [silenced p ~node ~time]: the schedule has the node's links down at
    [time] — killed for good, or inside a pause window. Partitions do not
    silence a node; they sever links ({!severed}). *)
val silenced : params -> node:int -> time:float -> bool

type t

(** [create ~params ~nprocs] builds the plan. Raises [Invalid_argument] if
    [validate] fails, a partition node is out of range, or a partition
    group swallows every node. *)
val create : params -> nprocs:int -> t

val params : t -> params

(** Per-message verdict for one transmission attempt on link [src -> dst].
    [delay] applies to the primary copy, [dup_delay] to the duplicate (only
    meaningful when [duplicate]); both are extra latency in microseconds.
    All four draws are consumed on every call, so the per-link stream stays
    aligned whatever the outcomes are. *)
type verdict = { drop : bool; duplicate : bool; delay : float; dup_delay : float }

val judge : t -> src:int -> dst:int -> verdict

(** [backoff_factor t ~src ~dst]: next retransmission-backoff jitter
    multiplier for the link, uniform in [0.75, 1.25) from a dedicated
    per-link stream (distinct from the verdict stream, so RTO jitter never
    shifts message verdicts). Desynchronizes the retransmit storm after a
    partition heals. *)
val backoff_factor : t -> src:int -> dst:int -> float

(** [severed t ~src ~dst ~time]: an active partition has [src] and [dst] on
    opposite sides at [time]. *)
val severed : t -> src:int -> dst:int -> time:float -> bool

(** [slowdown t ~node] is the node's CPU multiplier in [1.0, straggler];
    exactly [1.0] when [params.straggler = 1.0]. *)
val slowdown : t -> node:int -> float

(** Upper bound of the injected per-copy latency (jitter including the
    spike factor); transports use it to size retransmission timeouts and
    the heartbeat detector its default suspicion timeout. *)
val max_delay : params -> float
