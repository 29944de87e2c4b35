(* The sampled metrics flight recorder (Obs.Metrics) and its wiring:
   log2-bucket boundaries, the nearest-rank quantile helper, same-seed
   determinism of the serializations, non-perturbation of the simulated
   outcomes when the recorder is on, and the per-kind sink drop counts. *)

let check = Alcotest.check

(* --- histogram bucket boundaries ---------------------------------- *)

let test_histogram_boundaries () =
  let m = Obs.Metrics.create ~interval:10. ~nnodes:1 in
  let h = Obs.Metrics.histogram m "lat" in
  Obs.Metrics.observe h 0.99;
  (* [0, 1) *)
  Obs.Metrics.observe h 1.0;
  (* [1, 2) *)
  Obs.Metrics.observe h 4.0;
  (* [4, 8): lower edge is inclusive *)
  Obs.Metrics.observe h 7.999;
  Obs.Metrics.observe h 1e30;
  (* clamps into the last bucket *)
  let buckets = Obs.Metrics.histogram_buckets h in
  check
    Alcotest.(list (pair (float 1e-6) int))
    "bucket edges and counts"
    [ (1., 1); (2., 1); (8., 2); (Float.pow 2. 63., 1) ]
    buckets;
  let s = Obs.Metrics.histogram_stats h in
  check Alcotest.int "count" 5 s.Obs.Metrics.hs_count;
  check (Alcotest.float 1e20) "max is the exact observation" 1e30 s.Obs.Metrics.hs_max;
  (* ranks over counts [1;1;2;1]: p50 -> rank 3 -> the le=8 bucket *)
  check Alcotest.(option (float 1e-6)) "p50 upper edge" (Some 8.) s.Obs.Metrics.hs_p50

let test_histogram_empty () =
  let m = Obs.Metrics.create ~interval:10. ~nnodes:1 in
  let h = Obs.Metrics.histogram m "lat" in
  let s = Obs.Metrics.histogram_stats h in
  check Alcotest.int "count" 0 s.Obs.Metrics.hs_count;
  check Alcotest.(option (float 0.)) "p99 of empty is None" None s.Obs.Metrics.hs_p99;
  check Alcotest.(option (float 0.)) "p50 of empty is None" None s.Obs.Metrics.hs_p50;
  check Alcotest.(list (pair (float 0.) int)) "no buckets" [] (Obs.Metrics.histogram_buckets h)

(* --- Stats.quantile (nearest rank) -------------------------------- *)

let test_quantile () =
  let a = [| 1.; 2.; 3.; 4. |] in
  let q = Alcotest.(option (float 0.)) in
  check q "p0 clamps to the minimum" (Some 1.) (Svm.Stats.quantile a 0.);
  check q "p25 is rank 1" (Some 1.) (Svm.Stats.quantile a 0.25);
  check q "p50 is rank 2" (Some 2.) (Svm.Stats.quantile a 0.5);
  check q "p51 is rank 3" (Some 3.) (Svm.Stats.quantile a 0.51);
  check q "p99 is the maximum here" (Some 4.) (Svm.Stats.quantile a 0.99);
  check q "p100 is the maximum" (Some 4.) (Svm.Stats.quantile a 1.);
  check q "empty array is None, not 0" None (Svm.Stats.quantile [||] 0.5);
  check q "singleton" (Some 7.) (Svm.Stats.quantile [| 7. |] 0.5)

(* --- counter bucketing and gauge forward-fill ---------------------- *)

let test_series_shapes () =
  let m = Obs.Metrics.create ~interval:10. ~nnodes:2 in
  let c = Obs.Metrics.counter m "msgs" in
  let g = Obs.Metrics.gauge m "mem" in
  Obs.Metrics.add c ~node:0 ~time:0. 1.;
  Obs.Metrics.add c ~node:0 ~time:9.9 1.;
  (* same bucket *)
  Obs.Metrics.add c ~node:1 ~time:35. 5.;
  (* bucket 3 *)
  Obs.Metrics.sample g ~node:0 ~time:5. 100.;
  Obs.Metrics.sample g ~node:0 ~time:7. 200.;
  (* last sample wins *)
  check Alcotest.int "buckets span the highest touch" 4 (Obs.Metrics.buckets m);
  (match Obs.Metrics.series_total m "msgs" with
  | None -> Alcotest.fail "msgs series missing"
  | Some row ->
      check
        Alcotest.(array (float 0.))
        "counter rows zero-filled and bucketed"
        [| 2.; 0.; 0.; 5. |]
        row);
  match Obs.Metrics.series m with
  | [ ("msgs", Obs.Metrics.Counter, _); ("mem", Obs.Metrics.Gauge, rows) ] ->
      check
        Alcotest.(array (float 0.))
        "gauge carries the last sample forward"
        [| 200.; 200.; 200.; 200. |]
        rows.(0);
      check
        Alcotest.(array (float 0.))
        "unsampled gauge row is zero"
        [| 0.; 0.; 0.; 0. |]
        rows.(1)
  | _ -> Alcotest.fail "expected msgs then mem, in registration order"

(* --- determinism and non-perturbation over real runs --------------- *)

let run_sor ~metrics_interval () =
  let app = Apps.Registry.sor Apps.Registry.Test in
  let cfg = Svm.Config.make ~nprocs:4 ~metrics_interval Svm.Config.Hlrc in
  Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:false)

let test_same_seed_determinism () =
  let m1 =
    match (run_sor ~metrics_interval:500. ()).Svm.Runtime.r_metrics with
    | Some m -> m
    | None -> Alcotest.fail "no metrics recorded"
  in
  let m2 =
    match (run_sor ~metrics_interval:500. ()).Svm.Runtime.r_metrics with
    | Some m -> m
    | None -> Alcotest.fail "no metrics recorded"
  in
  check Alcotest.string "timeline JSON is byte-identical across same-seed runs"
    (Obs.Json.to_string (Obs.Metrics.to_json m1))
    (Obs.Json.to_string (Obs.Metrics.to_json m2));
  let csv m =
    let buf = Buffer.create 4096 in
    Obs.Metrics.write_csv (Buffer.add_string buf) m;
    Buffer.contents buf
  in
  check Alcotest.string "timeline CSV is byte-identical across same-seed runs" (csv m1) (csv m2)

let test_non_perturbation () =
  (* The sampler adds engine events but must not move any simulated
     outcome: elapsed, traffic counters and the memory digest are
     compared field-by-field (whole-report bytes would differ in
     r_events and the timeline block itself). *)
  let off = run_sor ~metrics_interval:0. () in
  let on_ = run_sor ~metrics_interval:500. () in
  check (Alcotest.float 0.) "elapsed" off.Svm.Runtime.r_elapsed on_.Svm.Runtime.r_elapsed;
  check Alcotest.int "messages" (Svm.Runtime.total_messages off)
    (Svm.Runtime.total_messages on_);
  check Alcotest.int "update bytes"
    (Svm.Runtime.total_update_bytes off)
    (Svm.Runtime.total_update_bytes on_);
  check Alcotest.int "protocol bytes"
    (Svm.Runtime.total_protocol_bytes off)
    (Svm.Runtime.total_protocol_bytes on_);
  check Alcotest.int64 "memory digest" off.Svm.Runtime.r_mem_digest
    on_.Svm.Runtime.r_mem_digest;
  check Alcotest.bool "metrics-off run records no timeline" true
    (off.Svm.Runtime.r_metrics = None)

let test_timeline_in_report_json () =
  let r = run_sor ~metrics_interval:500. () in
  let doc = Svm.Report_json.encode ~meta:{ Svm.Report_json.rm_app = "sor"; rm_scale = "test" } r in
  (match Svm.Report_json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "schema: %s" e);
  let s = Obs.Json.to_string doc in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has timeline block" true (contains s "\"timeline\"");
  check Alcotest.bool "has meta block" true (contains s "\"meta\"");
  check Alcotest.bool "meta names the app" true (contains s "\"app\":\"sor\"")

(* --- per-kind sink drop accounting --------------------------------- *)

let test_dropped_by_kind () =
  let ev time kind = { Obs.Trace.time; node = 0; kind } in
  let sink = Obs.Trace.create_sink ~capacity:2 () in
  for i = 0 to 4 do
    Obs.Trace.emit sink (ev (float_of_int i) Obs.Trace.Gc_done)
  done;
  Obs.Trace.emit sink (ev 9. (Obs.Trace.Mem_sample { bytes = 1 }));
  check
    Alcotest.(list (pair string int))
    "per-kind drop counts, sorted by kind"
    [ ("gc_done", 3); ("mem_sample", 1) ]
    (Obs.Trace.dropped_by_kind sink);
  (* absorb merges the per-kind counts alongside the total: the source's
     2 overflow drops carry over, and its 1 surviving event overflows the
     already-full destination, so gc_done rises by 3 *)
  let other = Obs.Trace.create_sink ~capacity:1 () in
  for i = 0 to 2 do
    Obs.Trace.emit other (ev (float_of_int i) Obs.Trace.Gc_done)
  done;
  Obs.Trace.absorb sink other;
  check
    Alcotest.(list (pair string int))
    "absorb merges per-kind counts"
    [ ("gc_done", 6); ("mem_sample", 1) ]
    (Obs.Trace.dropped_by_kind sink)

let suite =
  [
    Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_boundaries;
    Alcotest.test_case "empty histogram" `Quick test_histogram_empty;
    Alcotest.test_case "nearest-rank quantile" `Quick test_quantile;
    Alcotest.test_case "counter bucketing, gauge forward-fill" `Quick test_series_shapes;
    Alcotest.test_case "same-seed determinism" `Quick test_same_seed_determinism;
    Alcotest.test_case "metrics do not perturb the simulation" `Quick test_non_perturbation;
    Alcotest.test_case "timeline and meta blocks validate" `Quick test_timeline_in_report_json;
    Alcotest.test_case "per-kind sink drops" `Quick test_dropped_by_kind;
  ]
