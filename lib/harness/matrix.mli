(** Memoized (application x protocol x node count) run matrix.

    Every paper table and figure slices the same grid of simulations;
    running each cell once and caching the report keeps regenerating the
    full set affordable. *)

type t

(** [create ~scale ()] builds an empty matrix; [verify] (default true)
    checks every run against its sequential reference. [sink] receives the
    typed trace events of every uncached run (see {!Obs.Trace}). [chaos]
    applies one fault-injection plan to every cell, [fault_batch] sets
    {!Svm.Config.fault_batch} and [metrics_interval] sets
    {!Svm.Config.metrics_interval} on every cell (so cached reports carry a
    timeline, [r_metrics]); each defaults to {!Svm.Config.make}'s. *)
val create :
  ?verify:bool ->
  ?sink:Obs.Trace.sink ->
  ?chaos:Machine.Chaos.params ->
  ?fault_batch:int ->
  ?metrics_interval:float ->
  scale:Apps.Registry.scale ->
  unit ->
  t

(** Install a progress callback (called before each uncached run). *)
val on_progress : t -> (string -> unit) -> unit

val scale : t -> Apps.Registry.scale

(** Run (or recall) one cell. *)
val get : t -> Apps.Registry.t -> Svm.Config.protocol -> int -> Svm.Runtime.report

(** [prefetch t pool cells] evaluates every not-yet-cached cell of [cells]
    (duplicates ignored, order preserved) through [pool], so later {!get}s
    are cache hits. Each concurrent cell is a self-contained simulation
    tracing into its own sink; the per-cell sinks are merged into the
    matrix's shared sink in [cells] order, and the progress callback is
    mutex-serialized — so reports, dumps and traces are byte-identical to
    a sequential run whose first [get]s happen in [cells] order. *)
val prefetch :
  t -> Pool.t -> (Apps.Registry.t * Svm.Config.protocol * int) list -> unit

(** Sequential baseline: the computation-only time of a one-node run
    (protocol-independent; what the paper divides by for speedups). *)
val seq_time : t -> Apps.Registry.t -> float

(** [speedup m app proto np] = sequential time / parallel elapsed. *)
val speedup : t -> Apps.Registry.t -> Svm.Config.protocol -> int -> float

(** Mean over nodes of one per-node counter. *)
val mean_counter : Svm.Runtime.report -> (Svm.Stats.counters -> int) -> float

(** All cached cells as [(app, protocol, node_count, report)], sorted by
    application name, canonical protocol order (LRC, OLRC, HLRC, OHLRC,
    AURC, RC — see {!Svm.Config.protocol_rank}, matching the paper's table
    columns), then node count — a deterministic order for machine-readable
    dumps. *)
val cells : t -> (string * Svm.Config.protocol * int * Svm.Runtime.report) list

(** The document [bench --json] writes: [schema_version] and one entry per
    {!cells} element (app, protocol, nodes and its report, with [meta]). *)
val to_json : t -> Obs.Json.t
