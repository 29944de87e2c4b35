(* Command-line driver: run one benchmark application under one protocol on
   a simulated machine and print the measured report.

   Example:
     dune exec bin/svm_run.exe -- --app lu --protocol hlrc --nodes 32
     dune exec bin/svm_run.exe -- --app raytrace --protocol lrc --nodes 8 --trace *)

open Cmdliner

let protocol_choices = String.concat "|" Svm.Config.protocol_strings

let run app_name proto_name nprocs scale_name verify trace seed breakdown migrate coproc_locks
    json_out trace_out trace_format trace_cap profile drop_rate dup_rate jitter straggler
    fault_seed fault_batch kill_node kill_at detect_delay pause_node pause_at resume_at
    partition_group partition_at heal_at detector_name hb_interval hb_timeout
    replicas repl_scheme_name metrics metrics_interval metrics_out kv =
  let scale =
    match String.lowercase_ascii scale_name with
    | "test" -> Apps.Registry.Test
    | "bench" -> Apps.Registry.Bench
    | "full" -> Apps.Registry.Full
    | other -> failwith (Printf.sprintf "unknown scale %S (test|bench|full)" other)
  in
  let protocol =
    match Svm.Config.protocol_of_string proto_name with
    | Some p -> p
    | None ->
        failwith (Printf.sprintf "unknown protocol %S (%s)" proto_name protocol_choices)
  in
  let trace_fmt =
    match Obs.Export.format_of_string trace_format with
    | Some fmt -> fmt
    | None -> failwith (Printf.sprintf "unknown trace format %S (jsonl|chrome)" trace_format)
  in
  let kv_ops, kv_rate, kv_keys, kv_theta, kv_write_ratio, kv_txn_ratio, kv_buckets = kv in
  let kv_given =
    kv_ops <> None || kv_rate <> None || kv_keys <> None || kv_theta <> None
    || kv_write_ratio <> None || kv_txn_ratio <> None || kv_buckets <> None
  in
  let app =
    (* --kv-* knobs patch the scale's default kvstore parameters; for any
       other app they are a mistake, not silently ignored. *)
    if String.lowercase_ascii app_name = Apps.Kvstore.name then begin
      let base = Apps.Registry.kvstore_params scale in
      let ov v dflt = Option.value v ~default:dflt in
      let tp = base.Apps.Kvstore.traffic in
      let tp =
        {
          tp with
          Traffic.ops = ov kv_ops tp.Traffic.ops;
          rate = ov kv_rate tp.Traffic.rate;
          keys = ov kv_keys tp.Traffic.keys;
          theta = ov kv_theta tp.Traffic.theta;
          write_ratio = ov kv_write_ratio tp.Traffic.write_ratio;
          txn_ratio = ov kv_txn_ratio tp.Traffic.txn_ratio;
        }
      in
      Apps.Registry.kvstore_of_params
        { base with Apps.Kvstore.buckets = ov kv_buckets base.Apps.Kvstore.buckets; traffic = tp }
    end
    else begin
      if kv_given then
        failwith
          (Printf.sprintf "--kv-* flags apply only to --app %s (got --app %s)"
             Apps.Kvstore.name app_name);
      match Apps.Registry.find app_name scale with
      | Some a -> a
      | None ->
          failwith
            (Printf.sprintf "unknown application %S (%s)" app_name
               (String.concat "|" Apps.Registry.names))
    end
  in
  let repl_scheme =
    match Svm.Config.repl_scheme_of_string repl_scheme_name with
    | Some s -> s
    | None ->
        failwith
          (Printf.sprintf "unknown replication scheme %S (%s)" repl_scheme_name
             (String.concat "|" Svm.Config.repl_scheme_strings))
  in
  let detector =
    match Svm.Config.detector_of_string detector_name with
    | Some d -> d
    | None ->
        failwith
          (Printf.sprintf "unknown detector %S (%s)" detector_name
             (String.concat "|" Svm.Config.detector_strings))
  in
  let faults =
    (match kill_node with
    | None -> []
    | Some node -> [ Machine.Chaos.Kill { node; at = kill_at } ])
    @ (match pause_node with
      | None -> []
      | Some node -> [ Machine.Chaos.Pause { node; from_ = pause_at; until = resume_at } ])
    @
    match partition_group with
    | None -> []
    | Some group ->
        [ Machine.Chaos.Partition { group; from_ = partition_at; until = heal_at } ]
  in
  let chaos =
    {
      Machine.Chaos.drop_rate;
      dup_rate;
      jitter;
      straggler;
      fault_seed;
      faults;
      detect_delay;
    }
  in
  (match Machine.Chaos.validate chaos with
  | Ok () -> ()
  | Error msg -> failwith msg);
  (* --metrics / --metrics-out need the recorder on; default to a 1 ms
     cadence when --metrics-interval was not given. *)
  let metrics_interval =
    if metrics_interval > 0. || not (metrics || metrics_out <> None) then metrics_interval
    else 1000.0
  in
  let cfg =
    Svm.Config.make ~home_migration:migrate ~coproc_locks ~nprocs ~seed ~chaos
      ~trace_cap ~trace_spans:profile ~fault_batch ~replicas ~repl_scheme
      ~detector ~hb_interval ~hb_timeout ~metrics_interval protocol
  in
  let trace_fn =
    if trace then Some (fun t s -> Printf.printf "[%12.1f us] %s\n" t s) else None
  in
  let sink =
    if trace_out <> None || profile then
      Some (Obs.Trace.create_sink ~capacity:cfg.Svm.Config.trace_cap ())
    else None
  in
  let t0 = Unix.gettimeofday () in
  let r = Svm.Runtime.run ?trace:trace_fn ?sink cfg (app.Apps.Registry.body ~verify) in
  let wall = Unix.gettimeofday () -. t0 in
  let critical_path =
    match sink with
    | Some sink when profile -> Some (Obs.Critical_path.analyze sink)
    | _ -> None
  in
  let meta =
    {
      Svm.Report_json.rm_app = app.Apps.Registry.name;
      rm_scale = String.lowercase_ascii scale_name;
    }
  in
  (match json_out with
  | None -> ()
  | Some file -> Svm.Report_json.write ~meta ?critical_path ?trace:sink file r);
  (match (trace_out, sink) with
  | Some file, Some sink -> Obs.Export.write_file trace_fmt file sink
  | _ -> ());
  (match (metrics_out, r.Svm.Runtime.r_metrics) with
  | Some file, Some m -> Obs.Export.write_metrics_csv file m
  | _ -> ());
  Format.printf "application : %s (%s)@." app.Apps.Registry.name app.Apps.Registry.description;
  Format.printf "protocol    : %s, %d nodes@." (Svm.Config.protocol_name protocol) nprocs;
  Format.printf "elapsed     : %.3f simulated seconds (%.2f s wall, %d events)@."
    (r.Svm.Runtime.r_elapsed /. 1e6) wall r.Svm.Runtime.r_events;
  Format.printf "shared mem  : %d KB application, %d KB peak protocol (max node)@."
    (r.Svm.Runtime.r_shared_bytes / 1024)
    (Svm.Runtime.max_mem_peak r / 1024);
  Format.printf "traffic     : %d messages, %.2f MB updates, %.2f MB protocol@."
    (Svm.Runtime.total_messages r)
    (float_of_int (Svm.Runtime.total_update_bytes r) /. 1048576.0)
    (float_of_int (Svm.Runtime.total_protocol_bytes r) /. 1048576.0);
  (match r.Svm.Runtime.r_ops with
  | None -> ()
  | Some o ->
      let n = o.Svm.Runtime.or_gets + o.Svm.Runtime.or_puts + o.Svm.Runtime.or_txns in
      let throughput =
        if r.Svm.Runtime.r_elapsed > 0. then
          float_of_int n /. (r.Svm.Runtime.r_elapsed /. 1_000_000.)
        else 0.
      in
      Format.printf "serving     : %d ops (%d get / %d put / %d txn), %.0f ops/s@." n
        o.Svm.Runtime.or_gets o.Svm.Runtime.or_puts o.Svm.Runtime.or_txns throughput;
      let lats = o.Svm.Runtime.or_lats in
      let pct q = match Svm.Stats.quantile lats q with Some v -> v | None -> 0. in
      if Array.length lats > 0 then
        Format.printf "op latency  : p50 %.0f us, p99 %.0f us, max %.0f us@." (pct 0.5)
          (pct 0.99)
          lats.(Array.length lats - 1));
  if Svm.Config.chaos_enabled cfg then begin
    let sum field =
      Array.fold_left (fun acc n -> acc + field n.Svm.Runtime.nr_counters) 0 r.Svm.Runtime.r_nodes
    in
    Format.printf "chaos       : %d dropped, %d retransmitted, %d acks, %d duplicates discarded@."
      (sum (fun c -> c.Svm.Stats.msg_drops))
      (sum (fun c -> c.Svm.Stats.msg_retransmits))
      (sum (fun c -> c.Svm.Stats.msg_acks))
      (sum (fun c -> c.Svm.Stats.msg_dup_dropped));
    Format.printf "mem digest  : %016Lx@." r.Svm.Runtime.r_mem_digest
  end;
  (match kill_node with
  | None -> ()
  | Some victim ->
      let at = kill_at in
      let sum field =
        Array.fold_left
          (fun acc n -> acc + field n.Svm.Runtime.nr_counters)
          0 r.Svm.Runtime.r_nodes
      in
      let stalls = r.Svm.Runtime.r_failover_stalls in
      Format.printf
        "failover    : node %d killed at %.0f us; %d page(s) failed over, %d message(s) to \
         dead peers@."
        victim at
        (sum (fun c -> c.Svm.Stats.failovers))
        (sum (fun c -> c.Svm.Stats.msg_peer_dead));
      if stalls <> [] then
        Format.printf "recovery    : %d re-routed fetch(es), max stall %.0f us@."
          (List.length stalls)
          (List.fold_left Float.max 0. stalls);
      Format.printf "mem digest  : %016Lx@." r.Svm.Runtime.r_mem_digest);
  if detector = Svm.Config.Heartbeat then begin
    let sum field =
      Array.fold_left
        (fun acc n -> acc + field n.Svm.Runtime.nr_counters)
        0 r.Svm.Runtime.r_nodes
    in
    Format.printf
      "detector    : heartbeat every %.0f us, timeout %.0f us; %d suspicion(s), %d \
       refuted, %d fenced fetch(es)@."
      cfg.Svm.Config.hb_interval
      (Svm.Config.hb_timeout_effective cfg)
      (sum (fun c -> c.Svm.Stats.suspicions))
      (sum (fun c -> c.Svm.Stats.refutations))
      (sum (fun c -> c.Svm.Stats.fenced_fetches))
  end;
  if replicas > 1 then begin
    let sum field =
      Array.fold_left
        (fun acc n -> acc + field n.Svm.Runtime.nr_counters)
        0 r.Svm.Runtime.r_nodes
    in
    Format.printf "replication : %d replicas (%s): %d updates, %d invals, %.2f MB@." replicas
      (Svm.Config.repl_scheme_name repl_scheme)
      (sum (fun c -> c.Svm.Stats.repl_updates))
      (sum (fun c -> c.Svm.Stats.repl_invals))
      (float_of_int (sum (fun c -> c.Svm.Stats.repl_bytes)) /. 1048576.0)
  end;
  if verify then Format.printf "verification: passed (results match the sequential reference)@.";
  (match r.Svm.Runtime.r_metrics with
  | Some m when metrics ->
      Format.printf "@.metrics     : %g us buckets, %d intervals@." (Obs.Metrics.interval m)
        (Obs.Metrics.buckets m);
      List.iter
        (fun (name, kind, _rows) ->
          match Obs.Metrics.series_total m name with
          | None -> ()
          | Some tot ->
              let label, value =
                match kind with
                | Obs.Metrics.Counter -> ("total", Array.fold_left ( +. ) 0. tot)
                | Obs.Metrics.Gauge ->
                    ("last", if Array.length tot = 0 then 0. else tot.(Array.length tot - 1))
              in
              Format.printf "  %-18s %s  %s %.0f@." name (Obs.Metrics.spark ~width:40 tot)
                label value)
        (Obs.Metrics.series m);
      Format.printf "@.  latency (us)           count       p50       p90       p99       max@.";
      List.iter
        (fun (name, h) ->
          let st = Obs.Metrics.histogram_stats h in
          let pct = function Some v -> Printf.sprintf "%9.0f" v | None -> "        -" in
          Format.printf "  %-20s %8d %s %s %s %9.0f@." name st.Obs.Metrics.hs_count
            (pct st.Obs.Metrics.hs_p50) (pct st.Obs.Metrics.hs_p90)
            (pct st.Obs.Metrics.hs_p99) st.Obs.Metrics.hs_max)
        (Obs.Metrics.histograms m);
      let heats = Obs.Metrics.heatmaps m in
      (match List.assoc_opt "page_faults" heats with
      | Some fh ->
          let by_heat =
            List.sort
              (fun (p1, v1) (p2, v2) -> if v1 = v2 then compare p1 p2 else compare v2 v1)
              (Obs.Metrics.heatmap_entries fh)
          in
          let top = List.filteri (fun i _ -> i < 5) by_heat in
          if top <> [] then begin
            Format.printf "@.  hot pages (page: faults/diffs@@home):";
            List.iter
              (fun (page, v) ->
                let cell name =
                  Option.bind (List.assoc_opt name heats) (fun hm ->
                      Obs.Metrics.heatmap_find hm page)
                in
                let diffs = Option.value ~default:0. (cell "page_diffs") in
                match cell "page_home" with
                | Some h ->
                    Format.printf " %d:%.0f/%.0f@@%d" page v diffs (int_of_float h)
                | None -> Format.printf " %d:%.0f/%.0f" page v diffs)
              top;
            Format.printf "@."
          end
      | None -> ())
  | _ -> ());
  (match (critical_path, sink) with
  | Some cp, Some sink ->
      Format.printf "@.%s" (Obs.Critical_path.render cp);
      if Obs.Trace.dropped sink > 0 then begin
        let detail =
          Obs.Trace.dropped_by_kind sink
          |> List.map (fun (k, n) -> Printf.sprintf "%s %d" k n)
          |> String.concat ", "
        in
        Format.printf
          "warning     : trace sink overflowed (%d events dropped: %s; raise --trace-cap)@."
          (Obs.Trace.dropped sink) detail
      end
  | _ -> ());
  if breakdown then begin
    Format.printf "@.per-node breakdowns:@.";
    Array.iter
      (fun n ->
        Format.printf "  node %2d: %10.0f us  %a@." n.Svm.Runtime.nr_id n.Svm.Runtime.nr_elapsed
          Svm.Stats.pp_breakdown n.Svm.Runtime.nr_breakdown)
      r.Svm.Runtime.r_nodes
  end

let app_arg =
  let doc = "Application: " ^ String.concat ", " Apps.Registry.names ^ "." in
  Arg.(value & opt string "lu" & info [ "a"; "app" ] ~docv:"APP" ~doc)

let proto_arg =
  let doc = "Protocol: " ^ String.concat ", " Svm.Config.protocol_strings ^ "." in
  Arg.(value & opt string "hlrc" & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)

let nodes_arg =
  let doc = "Number of nodes to simulate." in
  Arg.(value & opt int 8 & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let scale_arg =
  let doc = "Problem scale: test, bench or full." in
  Arg.(value & opt string "bench" & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let verify_arg =
  let doc = "Check results against the sequential reference (default true)." in
  Arg.(value & opt bool true & info [ "verify" ] ~docv:"BOOL" ~doc)

let trace_arg =
  let doc = "Print the protocol event trace." in
  Arg.(value & flag & info [ "t"; "trace" ] ~doc)

let seed_arg =
  let doc = "Simulation seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let breakdown_arg =
  let doc = "Print per-node time breakdowns." in
  Arg.(value & flag & info [ "b"; "breakdown" ] ~doc)

let migrate_arg =
  let doc = "Enable adaptive home migration (home-based protocols)." in
  Arg.(value & flag & info [ "migrate" ] ~doc)

let coproc_locks_arg =
  let doc = "Service lock requests on the co-processor (overlapped protocols)." in
  Arg.(value & flag & info [ "coproc-locks" ] ~doc)

let json_arg =
  let doc = "Write the machine-readable report (JSON) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc = "Write the typed trace-event stream to $(docv) (see --trace-format)." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace output format: jsonl (one event per line) or chrome (Chrome trace_event \
     JSON, loadable in Perfetto / chrome://tracing)."
  in
  Arg.(value & opt string "jsonl" & info [ "trace-format" ] ~docv:"FMT" ~doc)

let trace_cap_arg =
  let doc =
    "Capacity of the trace-event sink used by --trace-out and --profile; events beyond it \
     are counted as dropped, keeping memory bounded on long runs."
  in
  Arg.(value & opt int 1_000_000 & info [ "trace-cap" ] ~docv:"N" ~doc)

let profile_arg =
  let doc =
    "Record the causal layer (wait spans, message flows) and print the critical-path blame \
     table: which wait buckets, pages and locks the run's end-to-end time is attributable \
     to. Combine with --json / --trace-out to export the analysis and the Perfetto trace."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let drop_rate_arg =
  let doc = "Probability in [0,1) that the network drops a packet (chaos testing)." in
  Arg.(value & opt float 0.0 & info [ "drop-rate" ] ~docv:"P" ~doc)

let dup_rate_arg =
  let doc = "Probability in [0,1) that the network duplicates a packet (chaos testing)." in
  Arg.(value & opt float 0.0 & info [ "dup-rate" ] ~docv:"P" ~doc)

let jitter_arg =
  let doc =
    "Maximum extra per-packet latency in microseconds; 1 in 64 packets spikes to 8x this."
  in
  Arg.(value & opt float 0.0 & info [ "jitter" ] ~docv:"US" ~doc)

let straggler_arg =
  let doc =
    "Straggler factor >= 1: each node's local work is scaled by a per-node multiplier drawn \
     uniformly from [1, $(docv)]. 1 disables."
  in
  Arg.(value & opt float 1.0 & info [ "straggler" ] ~docv:"F" ~doc)

let fault_seed_arg =
  let doc = "Seed for the fault-injection plan (independent of --seed)." in
  Arg.(value & opt int Machine.Chaos.none.fault_seed & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let fault_batch_arg =
  let doc =
    "Batched fault handling (home-based protocols): serve up to $(docv) adjacent same-home      invalid pages in the one round trip handling a miss. 1 (the default) reproduces the      paper's one-page-per-fault behavior exactly."
  in
  Arg.(value & opt int 1 & info [ "fault-batch" ] ~docv:"N" ~doc)

let kill_node_arg =
  let doc =
    "Chaos: crash-stop node $(docv) at --kill-at (links fall silent; with --replicas > 1 \
     its homed pages fail over to the next live replica). Node 0 (the lock/barrier \
     manager) cannot be killed."
  in
  Arg.(value & opt (some int) None & info [ "kill-node" ] ~docv:"NODE" ~doc)

let kill_at_arg =
  let doc = "Simulated time (microseconds) at which --kill-node fires." in
  Arg.(value & opt float 0.0 & info [ "kill-at" ] ~docv:"US" ~doc)

let detect_delay_arg =
  let doc =
    "Failure-detector delay in microseconds: failover runs this long after the kill."
  in
  Arg.(value & opt float Machine.Chaos.none.detect_delay & info [ "detect-delay" ] ~docv:"US" ~doc)

let pause_node_arg =
  let doc =
    "Chaos (gray failure): pause node $(docv) between --pause-at and --resume-at — it \
     stops executing but is not declared dead."
  in
  Arg.(value & opt (some int) None & info [ "pause" ] ~docv:"NODE" ~doc)

let pause_at_arg =
  let doc = "Simulated time (microseconds) at which --pause fires." in
  Arg.(value & opt float 0.0 & info [ "pause-at" ] ~docv:"US" ~doc)

let resume_at_arg =
  let doc = "Simulated time (microseconds) at which the paused node resumes." in
  Arg.(value & opt float 0.0 & info [ "resume-at" ] ~docv:"US" ~doc)

let partition_arg =
  let doc =
    "Chaos: network partition — the comma-separated node group $(docv) is cut off from \
     every other node between --partition-at and --heal-at (links within a side are \
     untouched; healing is by retransmission). The classic source of false suspicions \
     for the heartbeat detector."
  in
  Arg.(value & opt (some (list int)) None & info [ "partition" ] ~docv:"NODES" ~doc)

let partition_at_arg =
  let doc = "Simulated time (microseconds) at which --partition severs its links." in
  Arg.(value & opt float 0.0 & info [ "partition-at" ] ~docv:"US" ~doc)

let heal_at_arg =
  let doc = "Simulated time (microseconds) at which --partition heals." in
  Arg.(value & opt float 0.0 & info [ "heal-at" ] ~docv:"US" ~doc)

let detector_arg =
  let doc =
    "Failure detector: oracle (the default — failover fires --detect-delay after a \
     scheduled kill, never spuriously) or heartbeat (nodes ping every --hb-interval; a \
     peer silent past --hb-timeout is suspected, a strict majority of suspicions deposes \
     it, and a falsely-deposed node rejoins when heard from again). Oracle output is \
     byte-identical to a build without the detector."
  in
  Arg.(value & opt string "oracle" & info [ "detector" ] ~docv:"KIND" ~doc)

let hb_interval_arg =
  let doc = "Heartbeat period in simulated microseconds (--detector heartbeat)." in
  Arg.(value & opt float Svm.Config.default_hb_interval & info [ "hb-interval" ] ~docv:"US" ~doc)

let hb_timeout_arg =
  let doc =
    "Suspicion timeout in simulated microseconds; 0 (the default) auto-sizes it from the \
     heartbeat period and the chaos plan's worst jitter spike, so a fault-free run never \
     suspects anyone."
  in
  Arg.(value & opt float 0.0 & info [ "hb-timeout" ] ~docv:"US" ~doc)

let replicas_arg =
  let doc =
    "Replication degree: each page keeps $(docv) replicas (the home plus the next \
     $(docv)-1 node ids). 1 (the default) disables replication and is byte-identical to \
     an unreplicated run."
  in
  Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"K" ~doc)

let repl_scheme_arg =
  let doc =
    "Replication scheme: inval (header-only invalidations; recovery pulls retained diffs \
     back from live writers) or backup (primary streams every applied diff to the \
     backups)."
  in
  Arg.(value & opt string "inval" & info [ "repl-scheme" ] ~docv:"SCHEME" ~doc)

let metrics_arg =
  let doc =
    "Print the sampled-metrics summary: per-interval sparklines of every series, latency \
     histogram percentiles, and the hottest pages of the fault/diff heatmap. Implies \
     --metrics-interval 1000 unless one was given."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_interval_arg =
  let doc =
    "Sample the metrics flight recorder every $(docv) simulated microseconds: per-node \
     traffic/fault counters, in-flight/event-set/memory gauges, latency histograms and \
     page heatmaps, exported as the report JSON timeline block and via --metrics-out. 0 \
     (the default) disables metrics entirely, keeping every output byte-identical to a \
     run without the recorder."
  in
  Arg.(value & opt float 0.0 & info [ "metrics-interval" ] ~docv:"US" ~doc)

let metrics_out_arg =
  let doc =
    "Write the metrics time series to $(docv) as long-format CSV \
     (time_us,node,series,value; run-scope series use node -1). Implies \
     --metrics-interval 1000 unless one was given."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* The --kv-* knobs for --app kvstore, bundled into one term so [run]'s
   already-long signature grows by a single argument. [None] means "keep the
   scale's default"; value checking lives in [Traffic.validate] /
   [Kvstore.body]. *)
let kv_term =
  let ops =
    let doc = "kvstore: total operations in the open-loop plan." in
    Arg.(value & opt (some int) None & info [ "kv-ops" ] ~docv:"N" ~doc)
  in
  let rate =
    let doc = "kvstore: offered load in operations per simulated second." in
    Arg.(value & opt (some float) None & info [ "kv-rate" ] ~docv:"OPS_S" ~doc)
  in
  let keys =
    let doc = "kvstore: key-space size." in
    Arg.(value & opt (some int) None & info [ "kv-keys" ] ~docv:"N" ~doc)
  in
  let theta =
    let doc = "kvstore: Zipfian skew theta in [0,1); 0 is uniform." in
    Arg.(value & opt (some float) None & info [ "kv-theta" ] ~docv:"T" ~doc)
  in
  let write_ratio =
    let doc = "kvstore: fraction of non-transaction operations that are puts." in
    Arg.(value & opt (some float) None & info [ "kv-write-ratio" ] ~docv:"P" ~doc)
  in
  let txn_ratio =
    let doc = "kvstore: fraction of operations that are two-key transactions." in
    Arg.(value & opt (some float) None & info [ "kv-txn-ratio" ] ~docv:"P" ~doc)
  in
  let buckets =
    let doc = "kvstore: bucket count (one SVM page per bucket)." in
    Arg.(value & opt (some int) None & info [ "kv-buckets" ] ~docv:"N" ~doc)
  in
  let pack ops rate keys theta write_ratio txn_ratio buckets =
    (ops, rate, keys, theta, write_ratio, txn_ratio, buckets)
  in
  Term.(const pack $ ops $ rate $ keys $ theta $ write_ratio $ txn_ratio $ buckets)

(* Bad flag values surface as [Failure]/[Invalid_argument] (from the parsers
   above, [Chaos.validate], or [Config.make]); turn them into a clean
   one-line error and a nonzero exit instead of a backtrace. A run that
   cannot finish exits 3 with the watchdog's dump; one whose results fail
   the sequential reference exits 4. *)
let run_safe a b c d e g h i j k l m n o p q s t u v w x y z a2 b2 c2 d2 e2 f2 g2 h2 i2 j2
    k2 l2 m2 n2 o2 =
  try
    run a b c d e g h i j k l m n o p q s t u v w x y z a2 b2 c2 d2 e2 f2 g2 h2 i2 j2 k2 l2
      m2 n2 o2
  with
  | Failure msg | Invalid_argument msg ->
      Printf.eprintf "svm_run: %s\n" msg;
      exit 2
  | Svm.System.Deadlock dump ->
      Printf.eprintf "svm_run: the run cannot make progress\n%s\n" dump;
      exit 3
  | Apps.App_util.Verification_failed msg ->
      Printf.eprintf "svm_run: verification failed: %s\n" msg;
      exit 4

let cmd =
  let doc = "run a Splash-2-style benchmark on the simulated SVM system" in
  let info = Cmd.info "svm_run" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const run_safe $ app_arg $ proto_arg $ nodes_arg $ scale_arg $ verify_arg $ trace_arg
      $ seed_arg $ breakdown_arg $ migrate_arg $ coproc_locks_arg $ json_arg $ trace_out_arg
      $ trace_format_arg $ trace_cap_arg $ profile_arg $ drop_rate_arg $ dup_rate_arg
      $ jitter_arg $ straggler_arg $ fault_seed_arg $ fault_batch_arg $ kill_node_arg
      $ kill_at_arg $ detect_delay_arg $ pause_node_arg $ pause_at_arg $ resume_at_arg
      $ partition_arg $ partition_at_arg $ heal_at_arg $ detector_arg $ hb_interval_arg
      $ hb_timeout_arg $ replicas_arg $ repl_scheme_arg $ metrics_arg $ metrics_interval_arg
      $ metrics_out_arg $ kv_term)

let () = exit (Cmd.eval cmd)
