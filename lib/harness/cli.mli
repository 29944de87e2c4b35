(** The flag table of both CLIs, [svm_run] and [bench/main.exe].

    Each knob is defined here once: spelling, doc, converter, and a
    default read from {!Svm.Config.make}, {!Machine.Chaos.none} or
    {!Apps.Registry.kvstore_params}. The terms build the run configuration
    and check it with the library's own validators, so every bad value is
    a cmdliner usage error (exit 124) before anything is simulated. *)

(** The [--kv-*] overrides of the scale's kvstore parameters; [None] keeps
    the scale's default. *)
type kv = {
  ops : int option;
  rate : float option;
  keys : int option;
  theta : float option;  (** Also pins bench's kvstore-skew theta axis. *)
  write_ratio : float option;  (** Also pins its write-mix axis. *)
  txn_ratio : float option;
  buckets : int option;
}

(** The knobs both CLIs take. *)
type common = {
  scale : Apps.Registry.scale;
  verify : bool;  (** Off with [--no-verify]. *)
  json : string option;
  trace_out : string option;
  trace_format : Obs.Export.format;
  trace_cap : int;  (** Capacity of the sink behind [--trace-out] and profiling. *)
  chaos : Machine.Chaos.params;  (** Rates and fault seed; no fault schedule. *)
  fault_batch : int;
  metrics_interval : float;
  kv : kv;
}

(** The scale's kvstore parameters patched by the [--kv-*] overrides. *)
val kvstore_params : common -> Apps.Kvstore.params

(** The shared knobs; rejects an invalid chaos plan or kvstore patch. *)
val common : common Cmdliner.Term.t

(** Everything one [svm_run] invocation needs besides [-t] and [-b]. *)
type run = {
  common : common;
  app : Apps.Registry.t;  (** [--app], with the [--kv-*] patch for kvstore. *)
  cfg : Svm.Config.t;  (** Built by {!Svm.Config.make}, which validated it. *)
  profile : bool;
  metrics : bool;
  metrics_out : string option;
}

(** [svm_run]'s knobs: {!common} plus application, protocol, machine size,
    fault schedule, failure detector, replication and metrics output.
    [--kv-*] with an application other than kvstore is an error. *)
val svm_run : run Cmdliner.Term.t

(** What one [svm_run] invocation simulated: the report, the sink when
    [--trace-out] or [--profile] asked it to store events, the critical
    path under [--profile], and the run's host wall-clock seconds. *)
type outcome = {
  report : Svm.Runtime.report;
  sink : Obs.Trace.sink option;
  critical_path : Obs.Critical_path.t option;
  wall : float;
}

(** Simulate [run]; [tap] sees every event (svm_run's [-t]). *)
val execute : ?tap:(Obs.Trace.event -> unit) -> run -> outcome

(** The document [svm_run --json] writes: the report with its [meta],
    [trace] and [critical_path] sections. *)
val report_json : run -> outcome -> Obs.Json.t

(** Converters for the executables' own flags: an integer >= 1, and one of
    [names] (case-insensitive). *)
val pos_int : int Cmdliner.Arg.conv

val one_of : what:string -> string list -> string Cmdliner.Arg.conv

(** [eval info term] evaluates [term] on [Sys.argv]. On [--help] it prints
    the help and exits 0; on a usage error it prints it and exits 124. *)
val eval : Cmdliner.Cmd.info -> 'a Cmdliner.Term.t -> 'a
