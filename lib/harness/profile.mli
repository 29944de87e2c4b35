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

(** Print the composition table for the paper's four protocols over
    every registered application at [scale] and each node count, each
    cell traced into a sink of capacity [trace_cap] (default
    {!Obs.Trace.default_capacity}). Cells are independent profiled runs
    and are evaluated through [pool] (default {!Pool.sequential}); the
    table renders only after every cell has finished, so the bytes are
    identical for any pool width. *)
val report :
  Format.formatter ->
  ?pool:Pool.t ->
  ?verify:bool ->
  ?chaos:Machine.Chaos.params ->
  ?trace_cap:int ->
  scale:Apps.Registry.scale ->
  node_counts:int list ->
  unit ->
  unit
