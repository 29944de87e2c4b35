(** Run an application under a protocol and collect results.

    [run cfg app] simulates [cfg.nprocs] processes all executing [app] (SPMD,
    as in Splash-2) on the configured machine and protocol, and returns the
    measured report. Raises {!System.Deadlock} if some process never
    finishes (e.g. mismatched barriers). *)

(** Per-node results, relative to the {!Api.start_timing} window (or the
    whole run if never called). *)
type node_report = {
  nr_id : int;
  nr_elapsed : float;  (** Node virtual time in the window, microseconds. *)
  nr_breakdown : Stats.breakdown;
  nr_counters : Stats.counters;
  nr_mem_peak : int;  (** Peak live protocol memory, bytes. *)
  nr_mem_end : int;  (** Live protocol memory at the end, bytes. *)
  nr_epochs : Stats.breakdown list;  (** Per-barrier-epoch breakdowns. *)
}

(** Transport summary of a chaos run (unacknowledged and abandoned packets
    at exit; both zero on a successful run unless the tail acks were
    themselves lost, which is benign once every process finished). *)
type transport_report = { tr_inflight : int; tr_gave_up : int }

(** Serving-workload results (kvstore): op-kind counts and the completion
    latency of every operation, sorted ascending — ready for
    {!Stats.quantile}. The latency multiset is a pure function of the
    traffic plan, so the sorted array is deterministic regardless of how
    the nodes interleaved. *)
type ops_report = {
  or_gets : int;
  or_puts : int;
  or_txns : int;
  or_lats : float array;
}

type report = {
  r_config : Config.t;
  r_elapsed : float;  (** Parallel execution time = max node elapsed. *)
  r_nodes : node_report array;
  r_shared_bytes : int;  (** Total shared (application) memory. *)
  r_events : int;  (** Simulation events executed (diagnostic). *)
  r_mem_digest : int64;
      (** FNV-1a digest of the final shared memory (current page copies).
          The differential-soundness property: a chaos run's digest must
          equal its fault-free twin's. *)
  r_transport : transport_report option;  (** [Some] iff chaos was enabled. *)
  r_failover_stalls : float list;
      (** Recovery stall of each fetch re-routed by a failover (resume time
          minus failover time), sorted ascending; empty without a kill. *)
  r_metrics : Obs.Metrics.t option;
      (** The sampled metrics flight recorder, [Some] iff the run was
          configured with [metrics_interval] > 0 (note the sampler's cadence
          events inflate [r_events] relative to a metrics-off run; every
          simulated outcome — elapsed, counters, memory digest — is
          unchanged). *)
  r_ops : ops_report option;
      (** [Some] iff the app recorded serving operations
          ({!Api.record_op}); absent for the scientific kernels, so their
          reports are byte-identical to before. *)
}

(** Total computation time across nodes divided by node count: with one
    node this is the sequential-execution baseline the paper's speedups
    divide by. *)
val mean_compute : report -> float

(** [sum r f] adds the per-node counter [f] over every node of [r]. *)
val sum : report -> (Stats.counters -> int) -> int

val total_messages : report -> int

val total_update_bytes : report -> int

val total_protocol_bytes : report -> int

(** Maximum peak protocol memory over the nodes, bytes. *)
val max_mem_peak : report -> int

(** Serving operations completed per simulated second; 0 for a run that
    records none or takes no time. *)
val throughput : report -> float

(** [run ?sink cfg app] executes the simulation. [sink] receives the typed
    protocol trace events ({!Obs.Trace}); a tap on it can print them as they
    happen ({!Obs.Trace.create_sink}). *)
val run :
  ?sink:Obs.Trace.sink ->
  Config.t ->
  (Api.ctx -> unit) ->
  report

(** [sort_floats a] sorts [a] ascending in place: an LSD radix sort on
    the IEEE-754 bits, six passes of 11 bits, that boxes no element and
    allocates one scratch array of [a]'s length. Without NaNs and
    negative zeros its result is bit for bit that of
    [Array.sort Float.compare]. *)
val sort_floats : float array -> unit
