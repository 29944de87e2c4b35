(** Machine-readable reports: {!Runtime.report} → JSON.

    The contract behind the paper's results: time breakdowns,
    operation/traffic counters, per-epoch deltas and memory peaks per
    node, plus run-level totals, keyed by a [schema_version]. The encoding
    contains only simulated quantities — no wall-clock time — so two runs
    of the same configuration and seed serialize to byte-identical
    documents; [test/golden/identity.txt] pins them by digest.

    Each object is one {!Obs.Schema} field list, walked by both {!encode}
    and {!validate}. Its optional parts follow three presence rules:

    - {b given} the run: [config.fault_batch] (fault batch > 1),
      [config.replication] and the replication counters (replicas > 1),
      [config.chaos] (message chaos or a scheduled kill), within it the
      kill, pause and partition groups of the fault schedule,
      [config.detector] and the detector counters (heartbeat detector),
      the chaos counters and [totals.chaos] (message chaos), the kill
      counters and [totals.availability] (a kill or the heartbeat
      detector), [totals.serving] (an op log), and the [meta], [timeline],
      [trace] and [critical_path] sections (when passed or recorded).
      {!validate} accepts such a group absent and rejects it partly
      present;
    - {b iff} a sibling field: [lat_*] iff [ops > 0], [stall_*] iff
      [recovery_stalls > 0], a histogram's [p50]/[p90]/[p99] iff
      [count > 0], and [dropped_by_kind] iff [dropped > 0];
    - everything else is always present.

    Invariants: [schema_version] is 1; [nodes] has [config.nprocs]
    entries; timeline rows are [buckets] wide; histogram bucket counts
    sum to [count]; the protocol, replication scheme, detector and series
    kind are known names; [nprocs >= 1] and [replicas >= 2]. *)

val schema_version : int

(** Run metadata a driver knows but the {!Config} does not: the application
    name and problem scale. Passed by the CLIs so archived reports are
    self-describing; the emitted [meta] block also duplicates the
    CLI-relevant Config fields (protocol, nprocs, seeds, fault batch,
    replication, metrics cadence). *)
type run_meta = { rm_app : string; rm_scale : string }

(** [encode ?meta ?critical_path ?trace r]: the [meta] block, the
    [critical_path] section ({!Obs.Critical_path.schema}) and the [trace]
    section (sink occupancy: [events], [dropped], [dropped_by_kind],
    [capacity]) appear when passed; the [timeline] block
    ({!Obs.Metrics.schema}) when the run recorded metrics. *)
val encode :
  ?meta:run_meta ->
  ?critical_path:Obs.Critical_path.t ->
  ?trace:Obs.Trace.sink ->
  Runtime.report ->
  Obs.Json.t

(** Check a parsed report against the description above: every field's
    type, every presence rule and invariant, and no unknown key. Returns
    the first violation, named by its path. *)
val validate : Obs.Json.t -> (unit, string) result
