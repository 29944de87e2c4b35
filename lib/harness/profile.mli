(** Per-cell critical-path composition table (the [profile] bench
    artifact).

    Each (application x protocol x node count) cell is one profiled run
    with its own causal-trace sink ({!Svm.Config.trace_spans} on):
    a critical path is a property of a single run, so cells cannot share
    the memoized matrix sink. The table shows the exact on-path blame
    split (local / data / lock / barrier / gc, as % of the finish time),
    the top-blamed page and lock, and the straggler node of the
    widest-spread barrier epoch — Figure 3's story told by what actually
    bounded the run rather than by per-node averages. *)

(** Run one profiled cell: the report, its critical-path analysis, and the
    trace sink (for export or occupancy checks) of capacity [trace_cap]
    (default {!Obs.Trace.default_capacity}). *)
val cell :
  verify:bool ->
  chaos:Machine.Chaos.params ->
  ?trace_cap:int ->
  Apps.Registry.t ->
  Svm.Config.protocol ->
  int ->
  Svm.Runtime.report * Obs.Critical_path.t * Obs.Trace.sink

(** Print the composition table for [protocols] (default: the paper's
    four) over every registered application at [scale] and each node count.
    Cells are independent profiled runs and are evaluated through [pool]
    (default {!Pool.sequential}); the table renders only after every cell
    has finished, so the bytes are identical for any pool width. *)
val report :
  Format.formatter ->
  ?pool:Pool.t ->
  ?verify:bool ->
  ?chaos:Machine.Chaos.params ->
  ?trace_cap:int ->
  ?protocols:Svm.Config.protocol list ->
  scale:Apps.Registry.scale ->
  node_counts:int list ->
  unit ->
  unit
