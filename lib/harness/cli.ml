(* The flag table of both CLIs, [svm_run] and [bench/main.exe].

   Every knob is defined here once: spelling, doc, converter, and a default
   read from [Svm.Config.make], [Machine.Chaos.none] or
   [Apps.Registry.kvstore_params] rather than restated. The terms validate
   what they build, so a bad value is a cmdliner usage error (exit 124)
   before anything is simulated. *)

open Cmdliner
open Term.Syntax

(* The library defaults the knobs read; 8 nodes and HLRC are svm_run's own. *)
let defaults = Svm.Config.make ~nprocs:8 Svm.Config.Hlrc

let none = Machine.Chaos.none

(* ------------------------------------------------------------------ *)
(* Converters                                                         *)

let enum ~what names of_string to_string =
  let parse s =
    match of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown %s %S (%s)" what s (String.concat "|" names)))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (to_string v))

let named values name s = List.find_opt (fun v -> name v = String.lowercase_ascii s) values

let checked cv ok what =
  let parse s =
    match Arg.conv_parser cv s with
    | Ok v when not (ok v) -> Error (`Msg (Printf.sprintf "must be %s, got %s" what s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer cv)

let pos_int = checked Arg.int (fun n -> n >= 1) "at least 1"

let non_neg = checked Arg.float (fun x -> x >= 0.) ">= 0"

let scale_conv =
  let scales = Apps.Registry.[ Test; Bench; Full ] in
  let name = Apps.Registry.scale_name in
  enum ~what:"scale" (List.map name scales) (named scales name) name

let one_of ~what names = enum ~what names (named names Fun.id) Fun.id

let app_conv = one_of ~what:"application" Apps.Registry.names

let protocol_conv =
  enum ~what:"protocol" Svm.Config.protocol_strings Svm.Config.protocol_of_string (fun p ->
      String.lowercase_ascii (Svm.Config.protocol_name p))

let format_conv =
  let formats = Obs.Export.[ Jsonl; Chrome ] in
  enum ~what:"trace format"
    (List.map Obs.Export.format_name formats)
    Obs.Export.format_of_string Obs.Export.format_name

let scheme_conv =
  enum ~what:"replication scheme" Svm.Config.repl_scheme_strings
    Svm.Config.repl_scheme_of_string Svm.Config.repl_scheme_name

let detector_conv =
  enum ~what:"detector" Svm.Config.detector_strings Svm.Config.detector_of_string
    Svm.Config.detector_name

let opt cv default names docv doc = Arg.(value & opt cv default & info names ~docv ~doc)

let flag names doc = Arg.(value & flag & info names ~doc)

(* Turn the [Invalid_argument] of a library validator into a usage error. *)
let validated t =
  Term.cli_parse_result'
    (Term.map (fun build -> try Ok (build ()) with Invalid_argument msg -> Error msg) t)

(* ------------------------------------------------------------------ *)
(* Shared knobs                                                       *)

type kv = {
  ops : int option;
  rate : float option;
  keys : int option;
  theta : float option;
  write_ratio : float option;
  txn_ratio : float option;
  buckets : int option;
}

type common = {
  scale : Apps.Registry.scale;
  verify : bool;
  json : string option;
  trace_out : string option;
  trace_format : Obs.Export.format;
  trace_cap : int;
  chaos : Machine.Chaos.params;
  fault_batch : int;
  metrics_interval : float;
  kv : kv;
}

let kv_given { kv = k; _ } =
  k.ops <> None || k.rate <> None || k.keys <> None || k.theta <> None || k.write_ratio <> None
  || k.txn_ratio <> None || k.buckets <> None

let kvstore_params c =
  let base = Apps.Registry.kvstore_params c.scale in
  let ov v d = Option.value v ~default:d and k = c.kv and tp = base.Apps.Kvstore.traffic in
  {
    base with
    Apps.Kvstore.buckets = ov k.buckets base.Apps.Kvstore.buckets;
    traffic =
      {
        tp with
        Traffic.ops = ov k.ops tp.Traffic.ops;
        rate = ov k.rate tp.Traffic.rate;
        keys = ov k.keys tp.Traffic.keys;
        theta = ov k.theta tp.Traffic.theta;
        write_ratio = ov k.write_ratio tp.Traffic.write_ratio;
        txn_ratio = ov k.txn_ratio tp.Traffic.txn_ratio;
      };
  }

(* [common] checks the patched parameters with [Apps.Kvstore.validate]; only
   --kv-ops needs its own bound, as the plan itself may be empty. *)
let kv_term =
  let knob cv name docv doc =
    opt (Arg.some cv) None [ "kv-" ^ name ] docv ("kvstore: " ^ doc)
  in
  let+ ops = knob pos_int "ops" "N" "total operations in the open-loop plan."
  and+ rate = knob Arg.float "rate" "OPS_S" "offered load in operations per simulated second."
  and+ keys = knob Arg.int "keys" "N" "key-space size."
  and+ theta =
    knob Arg.float "theta" "T"
      "Zipfian skew theta in [0,1); 0 is uniform. Pins bench's kvstore-skew theta axis."
  and+ write_ratio =
    knob Arg.float "write-ratio" "P"
      "fraction of non-transaction operations that are puts. Pins bench's kvstore-skew \
       write-mix axis."
  and+ txn_ratio =
    knob Arg.float "txn-ratio" "P" "fraction of operations that are two-key transactions."
  and+ buckets = knob Arg.int "buckets" "N" "bucket count (one SVM page per bucket)." in
  { ops; rate; keys; theta; write_ratio; txn_ratio; buckets }

let common =
  validated
  @@ let+ scale =
       opt scale_conv Apps.Registry.Bench [ "s"; "scale" ] "SCALE"
         "Problem scale: test, bench or full."
     and+ no_verify =
       flag [ "no-verify" ] "Skip checking results against the sequential reference."
     and+ json =
       opt Arg.(some string) None [ "json" ] "FILE"
         "Write the machine-readable report (JSON) to $(docv); bench writes every simulated \
          matrix cell."
     and+ trace_out =
       opt Arg.(some string) None [ "trace-out" ] "FILE"
         "Write the typed trace-event stream to $(docv) (see --trace-format)."
     and+ trace_format =
       opt format_conv Obs.Export.Jsonl [ "trace-format" ] "FMT"
         "Trace output format: jsonl (one event per line) or chrome (Chrome trace_event JSON, \
          loadable in Perfetto / chrome://tracing)."
     and+ trace_cap =
       opt pos_int Obs.Trace.default_capacity [ "trace-cap" ] "N"
         "Capacity of the trace-event sink used by --trace-out and profiling; events beyond it \
          are counted as dropped, keeping memory bounded on long runs."
     and+ drop_rate =
       opt Arg.float none.drop_rate [ "drop-rate" ] "P"
         "Probability in [0,1) that the network drops a packet (chaos testing)."
     and+ dup_rate =
       opt Arg.float none.dup_rate [ "dup-rate" ] "P"
         "Probability in [0,1) that the network duplicates a packet (chaos testing)."
     and+ jitter =
       opt Arg.float none.jitter [ "jitter" ] "US"
         "Maximum extra per-packet latency in microseconds; 1 in 64 packets spikes to 8x this."
     and+ straggler =
       opt Arg.float none.straggler [ "straggler" ] "F"
         "Straggler factor >= 1: each node's local work is scaled by a per-node multiplier \
          drawn uniformly from [1, $(docv)]. 1 disables."
     and+ fault_seed =
       opt Arg.int none.fault_seed [ "fault-seed" ] "SEED"
         "Seed for the fault-injection plan."
     and+ fault_batch =
       opt pos_int defaults.fault_batch [ "fault-batch" ] "N"
         "Batched fault handling (home-based protocols): serve up to $(docv) adjacent \
          same-home invalid pages in the one round trip handling a miss. 1 (the default) \
          reproduces the paper's one-page-per-fault behavior exactly."
     and+ metrics_interval =
       opt non_neg defaults.metrics_interval [ "metrics-interval" ] "US"
         "Sample the metrics flight recorder every $(docv) simulated microseconds: per-node \
          traffic/fault counters, in-flight/event-set/memory gauges, latency histograms and \
          page heatmaps, exported as the report JSON timeline block and by svm_run's \
          --metrics-out. 0 (the default) disables metrics entirely, keeping every output \
          byte-identical to a run without the recorder."
     and+ kv = kv_term in
     fun () ->
       let chaos = { none with drop_rate; dup_rate; jitter; straggler; fault_seed } in
       Result.iter_error invalid_arg (Machine.Chaos.validate chaos);
       let c =
         {
           scale;
           verify = not no_verify;
           json;
           trace_out;
           trace_format;
           trace_cap;
           chaos;
           fault_batch;
           metrics_interval;
           kv;
         }
       in
       Apps.Kvstore.validate ~page_words:defaults.page_words (kvstore_params c);
       c

(* ------------------------------------------------------------------ *)
(* svm_run                                                            *)

type run = {
  common : common;
  app : Apps.Registry.t;
  cfg : Svm.Config.t;
  profile : bool;
  metrics : bool;
  metrics_out : string option;
}

(* Each fault flag takes its kind's argument of {!Machine.Chaos.to_string}'s
   spelling and may repeat. The schedule lists the kills, then the pauses,
   then the partitions, each in the order given; no run depends on the
   order across kinds. *)
let schedule =
  let faults kind docv doc =
    let parse s = Result.map_error (fun e -> `Msg e) (Machine.Chaos.of_string (kind ^ " " ^ s)) in
    let print ppf f = Format.pp_print_string ppf (Machine.Chaos.to_string f) in
    Arg.(value & opt_all (conv (parse, print)) [] & info [ kind ] ~docv ~doc:(doc ^ " Repeatable."))
  in
  let+ kills =
    faults "kill" "NODE@US"
      "Chaos: crash-stop NODE at simulated time US (microseconds): its links fall silent, and with \
       --replicas > 1 its homed pages fail over to the next live replica. Node 0 (the \
       lock/barrier manager) cannot be killed."
  and+ pauses =
    faults "pause" "NODE@FROM:UNTIL"
      "Chaos (gray failure): NODE stops executing between FROM and UNTIL but is not declared dead."
  and+ partitions =
    faults "partition" "NODES@FROM:UNTIL"
      "Chaos: network partition: the comma-separated node group NODES is cut off from every other \
       node between FROM and UNTIL (links within a side are untouched; healing is by \
       retransmission). The classic source of false suspicions for the heartbeat detector."
  in
  kills @ pauses @ partitions

let svm_run =
  validated
  @@ let+ c = common
     and+ app_name =
       opt app_conv "lu" [ "a"; "app" ] "APP"
         ("Application: " ^ String.concat ", " Apps.Registry.names ^ ".")
     and+ protocol =
       opt protocol_conv defaults.protocol [ "p"; "protocol" ] "PROTO"
         ("Protocol: " ^ String.concat ", " Svm.Config.protocol_strings ^ ".")
     and+ nprocs = opt Arg.int defaults.nprocs [ "n"; "nodes" ] "N" "Number of nodes to simulate."
     and+ home_migration =
       flag [ "migrate" ] "Enable adaptive home migration (home-based protocols)."
     and+ coproc_locks =
       flag [ "coproc-locks" ] "Service lock requests on the co-processor (overlapped protocols)."
     and+ profile =
       flag [ "profile" ]
         "Record the causal layer (wait spans, message flows) and print the critical-path blame \
          table: which wait buckets, pages and locks the run's end-to-end time is attributable \
          to. Combine with --json / --trace-out to export the analysis and the Perfetto trace."
     and+ faults = schedule
     and+ detect_delay =
       opt Arg.float none.detect_delay [ "detect-delay" ] "US"
         "Failure-detector delay in microseconds: failover runs this long after the kill."
     and+ detector =
       opt detector_conv defaults.detector [ "detector" ] "KIND"
         "Failure detector: oracle (the default — failover fires --detect-delay after a \
          scheduled kill, never spuriously) or heartbeat (nodes ping every --hb-interval; a \
          peer silent past --hb-timeout is suspected, a strict majority of suspicions deposes \
          it, and a falsely-deposed node rejoins when heard from again). Oracle output is \
          byte-identical to a build without the detector."
     and+ hb_interval =
       opt Arg.float defaults.hb_interval [ "hb-interval" ] "US"
         "Heartbeat period in simulated microseconds (--detector heartbeat)."
     and+ hb_timeout =
       opt Arg.float defaults.hb_timeout [ "hb-timeout" ] "US"
         "Suspicion timeout in simulated microseconds; 0 (the default) auto-sizes it from the \
          heartbeat period and the chaos plan's worst jitter spike, so a fault-free run never \
          suspects anyone."
     and+ replicas =
       opt Arg.int defaults.replicas [ "replicas" ] "K"
         "Replication degree: each page keeps $(docv) replicas (the home plus the next \
          $(docv)-1 node ids). 1 (the default) disables replication and is byte-identical to \
          an unreplicated run."
     and+ repl_scheme =
       opt scheme_conv defaults.repl_scheme [ "repl-scheme" ] "SCHEME"
         "Replication scheme: inval (header-only invalidations; recovery pulls retained diffs \
          back from live writers) or backup (primary streams every applied diff to the \
          backups)."
     and+ metrics =
       flag [ "metrics" ]
         "Print the sampled-metrics summary: per-interval sparklines of every series, latency \
          histogram percentiles, and the hottest pages of the fault/diff heatmap. Implies \
          --metrics-interval 1000 unless one was given."
     and+ metrics_out =
       opt Arg.(some string) None [ "metrics-out" ] "FILE"
         "Write the metrics time series to $(docv) as long-format CSV \
          (time_us,node,series,value; run-scope series use node -1). Implies \
          --metrics-interval 1000 unless one was given." in
     fun () ->
       (* --kv-* patch the scale's kvstore; for any other app they are a
          mistake, not silently ignored. *)
       let app =
         if app_name = Apps.Kvstore.name then Apps.Registry.kvstore_of_params (kvstore_params c)
         else if kv_given c then
           invalid_arg
             (Printf.sprintf "--kv-* flags apply only to --app %s (got --app %s)"
                Apps.Kvstore.name app_name)
         else Option.get (Apps.Registry.find app_name c.scale)
       in
       let metrics_interval =
         if c.metrics_interval > 0. || not (metrics || metrics_out <> None) then
           c.metrics_interval
         else 1000.0
       in
       let chaos = { c.chaos with faults; detect_delay } in
       let cfg =
         Svm.Config.make ~home_migration ~coproc_locks ~nprocs ~chaos ~trace_spans:profile
           ~fault_batch:c.fault_batch ~replicas ~repl_scheme ~detector ~hb_interval ~hb_timeout
           ~metrics_interval protocol
       in
       { common = c; app; cfg; profile; metrics; metrics_out }

type outcome = {
  report : Svm.Runtime.report;
  sink : Obs.Trace.sink option;
  critical_path : Obs.Critical_path.t option;
  wall : float;
}

let execute ?tap o =
  let c = o.common in
  (* Only --trace-out and --profile store events; a tap alone (-t) prints
     from a capacity-0 sink and adds no trace section. *)
  let stored = c.trace_out <> None || o.profile in
  let capacity = if stored then c.trace_cap else 0 in
  let sink =
    if stored || tap <> None then Some (Obs.Trace.create_sink ~capacity ?tap ()) else None
  in
  let t0 = Unix.gettimeofday () in
  let report = Svm.Runtime.run ?sink o.cfg (o.app.Apps.Registry.body ~verify:c.verify) in
  let wall = Unix.gettimeofday () -. t0 in
  let sink = if stored then sink else None in
  let critical_path = if o.profile then Option.map Obs.Critical_path.analyze sink else None in
  { report; sink; critical_path; wall }

let report_json o out =
  let meta =
    {
      Svm.Report_json.rm_app = o.app.Apps.Registry.name;
      rm_scale = Apps.Registry.scale_name o.common.scale;
    }
  in
  Svm.Report_json.encode ~meta ?critical_path:out.critical_path ?trace:out.sink out.report

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)

let eval info term =
  match Cmd.eval_value' (Cmd.v info term) with `Ok v -> v | `Exit code -> exit code
