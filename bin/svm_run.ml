(* Command-line driver: run one benchmark application under one protocol on
   a simulated machine and print the measured report. The knobs are
   [Harness.Cli]'s (shared with bench/main.exe); only -t and -b are this
   driver's own.

   Example:
     dune exec bin/svm_run.exe -- --app lu --protocol hlrc --nodes 32
     dune exec bin/svm_run.exe -- --app raytrace --protocol lrc --nodes 8 --trace *)

open Cmdliner

let run (o : Harness.Cli.run) ~trace ~breakdown =
  let c = o.common and cfg = o.cfg and app = o.app in
  (* -t prints each event's legacy line from a tap on the sink. *)
  let tap (e : Obs.Trace.event) =
    Option.iter (Printf.printf "[%12.1f us] %s\n" e.time) (Obs.Trace.legacy_line e)
  in
  let out = Harness.Cli.execute ?tap:(if trace then Some tap else None) o in
  let r = out.report and sink = out.sink and critical_path = out.critical_path in
  Option.iter
    (fun file -> Obs.Export.write_json ~what:"report" file (Harness.Cli.report_json o out))
    c.json;
  (match (c.trace_out, sink) with
  | Some file, Some sink -> Obs.Export.write_file c.trace_format file sink
  | _ -> ());
  (match (o.metrics_out, r.Svm.Runtime.r_metrics) with
  | Some file, Some m -> Obs.Export.write_metrics_csv file m
  | _ -> ());
  let sum = Svm.Runtime.sum r in
  Format.printf "application : %s (%s)@." app.Apps.Registry.name app.Apps.Registry.description;
  Format.printf "protocol    : %s, %d nodes@." (Svm.Config.protocol_name cfg.protocol) cfg.nprocs;
  Format.printf "elapsed     : %.3f simulated seconds (%.2f s wall, %d events)@."
    (r.Svm.Runtime.r_elapsed /. 1e6) out.wall r.Svm.Runtime.r_events;
  Format.printf "shared mem  : %d KB application, %d KB peak protocol (max node)@."
    (r.Svm.Runtime.r_shared_bytes / 1024)
    (Svm.Runtime.max_mem_peak r / 1024);
  Format.printf "traffic     : %d messages, %.2f MB updates, %.2f MB protocol@."
    (Svm.Runtime.total_messages r)
    (float_of_int (Svm.Runtime.total_update_bytes r) /. 1048576.0)
    (float_of_int (Svm.Runtime.total_protocol_bytes r) /. 1048576.0);
  (match r.Svm.Runtime.r_ops with
  | None -> ()
  | Some ops ->
      let lats = ops.Svm.Runtime.or_lats in
      Format.printf "serving     : %d ops (%d get / %d put / %d txn), %.0f ops/s@."
        (Array.length lats) ops.Svm.Runtime.or_gets ops.Svm.Runtime.or_puts
        ops.Svm.Runtime.or_txns (Svm.Runtime.throughput r);
      let pct q = match Svm.Stats.quantile lats q with Some v -> v | None -> 0. in
      if Array.length lats > 0 then
        Format.printf "op latency  : p50 %.0f us, p99 %.0f us, max %.0f us@." (pct 0.5)
          (pct 0.99)
          lats.(Array.length lats - 1));
  if Svm.Config.chaos_enabled cfg then begin
    Format.printf "chaos       : %d dropped, %d retransmitted, %d acks, %d duplicates discarded@."
      (sum (fun c -> c.Svm.Stats.msg_drops))
      (sum (fun c -> c.Svm.Stats.msg_retransmits))
      (sum (fun c -> c.Svm.Stats.msg_acks))
      (sum (fun c -> c.Svm.Stats.msg_dup_dropped));
    Format.printf "mem digest  : %016Lx@." r.Svm.Runtime.r_mem_digest
  end;
  (match Machine.Chaos.kills cfg.chaos with
  | [] -> ()
  | kills ->
      let stalls = r.Svm.Runtime.r_failover_stalls in
      Format.printf "failover    : %s; %d page(s) failed over, %d message(s) to dead peers@."
        (String.concat ", "
           (List.map
              (fun (victim, at) -> Printf.sprintf "node %d killed at %.0f us" victim at)
              kills))
        (sum (fun c -> c.Svm.Stats.failovers))
        (sum (fun c -> c.Svm.Stats.msg_peer_dead));
      if stalls <> [] then
        Format.printf "recovery    : %d re-routed fetch(es), max stall %.0f us@."
          (List.length stalls)
          (List.fold_left Float.max 0. stalls);
      Format.printf "mem digest  : %016Lx@." r.Svm.Runtime.r_mem_digest);
  if cfg.detector = Svm.Config.Heartbeat then
    Format.printf
      "detector    : heartbeat every %.0f us, timeout %.0f us; %d suspicion(s), %d \
       refuted, %d fenced fetch(es)@."
      cfg.hb_interval
      (Svm.Config.hb_timeout_effective cfg)
      (sum (fun c -> c.Svm.Stats.suspicions))
      (sum (fun c -> c.Svm.Stats.refutations))
      (sum (fun c -> c.Svm.Stats.fenced_fetches));
  if cfg.replicas > 1 then
    Format.printf "replication : %d replicas (%s): %d updates, %d invals, %.2f MB@." cfg.replicas
      (Svm.Config.repl_scheme_name cfg.repl_scheme)
      (sum (fun c -> c.Svm.Stats.repl_updates))
      (sum (fun c -> c.Svm.Stats.repl_invals))
      (float_of_int (sum (fun c -> c.Svm.Stats.repl_bytes)) /. 1048576.0);
  if c.verify then
    Format.printf "verification: passed (results match the sequential reference)@.";
  (match r.Svm.Runtime.r_metrics with
  | Some m when o.metrics ->
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

let () =
  let trace = Arg.(value & flag & info [ "t"; "trace" ] ~doc:"Print the protocol event trace.") in
  let breakdown =
    Arg.(value & flag & info [ "b"; "breakdown" ] ~doc:"Print per-node time breakdowns.")
  in
  let doc = "run a Splash-2-style benchmark on the simulated SVM system" in
  let o, trace, breakdown =
    Harness.Cli.eval
      (Cmd.info "svm_run" ~version:"1.0" ~doc)
      Term.(const (fun o t b -> (o, t, b)) $ Harness.Cli.svm_run $ trace $ breakdown)
  in
  (* Bad flags were rejected by the parser (exit 124). A run that cannot
     finish exits 3 with the watchdog's dump; one whose results fail the
     sequential reference exits 4; an unwritable output file exits 2. *)
  try run o ~trace ~breakdown with
  | Svm.System.Deadlock dump ->
      Printf.eprintf "svm_run: the run cannot make progress\n%s\n" dump;
      exit 3
  | Apps.App_util.Verification_failed msg ->
      Printf.eprintf "svm_run: verification failed: %s\n" msg;
      exit 4
  | Failure msg ->
      Printf.eprintf "svm_run: %s\n" msg;
      exit 2
