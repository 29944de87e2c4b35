(* Traffic-vs-time timelines (the [timeline] bench artifact).

   One picture per protocol: the same application's per-interval message
   and update-byte series fault-free and under a fixed chaos plan, stacked
   so the retransmission spike and the elapsed stretch line up visually;
   plus a replicated-home failover cell whose recovery-stall window shows
   up as a hole in the traffic. Uses the sampled metrics recorder
   ([Config.metrics_interval]); the bucket width is derived from a
   fault-free probe run so every scale renders at a comparable number of
   intervals. *)

let width = 44

(* Same drop/jitter magnitudes as the chaos-soak default plan, pinned to
   one seed so the artifact is a single reproducible picture. *)
let chaos_plan =
  {
    Machine.Chaos.none with
    Machine.Chaos.drop_rate = 0.02;
    jitter = 30.;
    fault_seed = 7;
  }

let run_cell ~verify ~scale ~np ~interval ?(chaos = Machine.Chaos.none)
    ?(replicas = 1) proto =
  let app = Apps.Registry.sor scale in
  let cfg = Svm.Config.make ~nprocs:np ~chaos ~replicas ~metrics_interval:interval proto in
  Svm.Runtime.run cfg (app.Apps.Registry.body ~verify)

let metrics r =
  match r.Svm.Runtime.r_metrics with
  | Some m -> m
  | None -> invalid_arg "Timeline: run recorded no metrics"

let total r name =
  match Obs.Metrics.series_total (metrics r) name with
  | Some row -> row
  | None -> [||]

(* One sparkline row: [label] names the series, [tag] the run variant. The
   sparklines are resampled to a fixed character width, so variants of one
   series line up column-wise even though they span different amounts of
   simulated time — the bucket count on the right says how much. *)
let spark_line ppf label tag r name =
  let row = total r name in
  Format.fprintf ppf "  %-13s %-6s %s  total %.0f (%d buckets)@." label tag
    (Obs.Metrics.spark ~width row)
    (Array.fold_left ( +. ) 0. row)
    (Obs.Metrics.buckets (metrics r))

let protocol_block ppf proto ok chaos =
  Format.fprintf ppf "@.%s@." (Svm.Config.protocol_name proto);
  spark_line ppf "messages" "ok" ok "messages";
  spark_line ppf "messages" "chaos" chaos "messages";
  spark_line ppf "update_bytes" "ok" ok "update_bytes";
  spark_line ppf "update_bytes" "chaos" chaos "update_bytes";
  spark_line ppf "retransmits" "chaos" chaos "retransmits";
  Format.fprintf ppf "  elapsed: ok %.0f us, chaos %.0f us (%.2fx)@."
    ok.Svm.Runtime.r_elapsed chaos.Svm.Runtime.r_elapsed
    (chaos.Svm.Runtime.r_elapsed /. ok.Svm.Runtime.r_elapsed)

let failover_block ppf ~victim ~kill_at ok failover =
  Format.fprintf ppf "@.HLRC + 2 replicas, node %d killed at t=%.0f us@." victim
    kill_at;
  spark_line ppf "messages" "kill" failover "messages";
  spark_line ppf "repl_bytes" "kill" failover "repl_bytes";
  spark_line ppf "retransmits" "kill" failover "retransmits";
  (match List.assoc_opt "recovery_stall_us" (Obs.Metrics.histograms (metrics failover)) with
  | None -> ()
  | Some h -> (
      let s = Obs.Metrics.histogram_stats h in
      match (s.Obs.Metrics.hs_p50, s.Obs.Metrics.hs_p99) with
      | Some p50, Some p99 ->
          Format.fprintf ppf
            "  recovery stall: %d waiters, p50 <= %.0f us, p99 <= %.0f us, max %.0f us@."
            s.Obs.Metrics.hs_count p50 p99 s.Obs.Metrics.hs_max
      | _ -> Format.fprintf ppf "  recovery stall: no waiters@."));
  let failovers = Svm.Runtime.sum failover (fun c -> c.Svm.Stats.failovers) in
  Format.fprintf ppf "  failovers: %d pages promoted; elapsed %.0f us (%.2fx fault-free)@."
    failovers failover.Svm.Runtime.r_elapsed
    (failover.Svm.Runtime.r_elapsed /. ok.Svm.Runtime.r_elapsed)

(* The kill victim: the home of the most-faulted page (excluding node 0,
   which cannot be killed). Killing a node that homes no pages proves
   nothing — at small scales round-robin homes land on a strict subset of
   the nodes — so the victim is read off the probe's heatmaps, where the
   traffic actually is. *)
let victim_of probe ~np =
  let m = metrics probe in
  let faults = List.assoc_opt "page_faults" (Obs.Metrics.heatmaps m) in
  let fault_of page =
    match faults with
    | None -> 0.
    | Some fh -> Option.value ~default:0. (Obs.Metrics.heatmap_find fh page)
  in
  match List.assoc_opt "page_home" (Obs.Metrics.heatmaps m) with
  | None -> np - 1
  | Some hm ->
      let best =
        List.fold_left
          (fun acc (page, home) ->
            let home = int_of_float home in
            if home <= 0 then acc
            else
              match acc with
              | Some (_, f) when f >= fault_of page -> acc
              | _ -> Some (home, fault_of page))
          None
          (Obs.Metrics.heatmap_entries hm)
      in
      (match best with Some (h, _) -> h | None -> np - 1)

let report ppf ?(pool = Pool.sequential) ?(verify = true) ~scale ~np () =
  if np < 2 then invalid_arg "Timeline.report: np must be >= 2 (node 0 cannot be killed)";
  (* The probe run (coarse cadence, fault-free) fixes three inputs the
     real cells need up front: the bucket width, the kill time, and the
     kill victim (from its home/fault heatmaps). *)
  let probe = run_cell ~verify ~scale ~np ~interval:1000. Svm.Config.Hlrc in
  let elapsed = probe.Svm.Runtime.r_elapsed in
  let interval = Float.max 1. (Float.round (elapsed /. 48.)) in
  let kill_at = Float.round (0.5 *. elapsed) in
  let victim = victim_of probe ~np in
  (* Detection slower than a barrier period: the next fetch burst to the
     dead home lands inside the outage window and blocks until failover,
     so the recovery stall is visible instead of a timing accident. *)
  let detect_delay = Float.max 500. (4. *. interval) in
  let kill_plan =
    {
      Machine.Chaos.none with
      Machine.Chaos.faults = [ Machine.Chaos.Kill { node = victim; at = kill_at } ];
      detect_delay;
    }
  in
  let cells =
    Pool.map pool
      (fun thunk -> thunk ())
      [
        (fun () -> run_cell ~verify ~scale ~np ~interval Svm.Config.Lrc);
        (fun () -> run_cell ~verify ~scale ~np ~interval ~chaos:chaos_plan Svm.Config.Lrc);
        (fun () -> run_cell ~verify ~scale ~np ~interval Svm.Config.Hlrc);
        (fun () -> run_cell ~verify ~scale ~np ~interval ~chaos:chaos_plan Svm.Config.Hlrc);
        (* Mid-run kill: soundness under kills is kill-soak's business (it
           kills in the victim's synchronization tail); here the point is a
           visible recovery-stall window, so the kill lands mid-run and the
           cell skips result verification. *)
        (fun () ->
          run_cell ~verify:false ~scale ~np ~interval ~chaos:kill_plan ~replicas:2
            Svm.Config.Hlrc);
      ]
  in
  match cells with
  | [ lrc_ok; lrc_chaos; hlrc_ok; hlrc_chaos; failover ] ->
      Format.fprintf ppf
        "@.=== Timeline: traffic vs simulated time (sor, %d nodes, %g us buckets) ===@." np
        interval;
      Format.fprintf ppf "chaos plan: drop %.0f%%, jitter %.0f us, fault seed %d@."
        (100. *. chaos_plan.Machine.Chaos.drop_rate)
        chaos_plan.Machine.Chaos.jitter chaos_plan.Machine.Chaos.fault_seed;
      protocol_block ppf Svm.Config.Lrc lrc_ok lrc_chaos;
      protocol_block ppf Svm.Config.Hlrc hlrc_ok hlrc_chaos;
      failover_block ppf ~victim ~kill_at hlrc_ok failover
  | _ -> assert false
