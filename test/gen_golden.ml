(* Golden-file generator for the trace exporters.

   Builds one small hand-written sink exercising every exporter feature —
   instants, a wait span fused into a "ph":"X" complete event, all three
   flow pairs (message, lock, diff), both counter tracks, an unmatched
   Wait_begin — plus an overflowed sink for the dropped-events records,
   and writes the JSONL and Chrome renderings. Dune diffs these against
   test/golden/*; after an intentional exporter change, run
   [dune promote] to refresh the committed files. *)

let ev time node kind = { Obs.Trace.time; node; kind }

let sample_sink () =
  let sink = Obs.Trace.create_sink ~capacity:64 () in
  List.iter (Obs.Trace.emit sink)
    [
      ev 10.0 0 (Obs.Trace.Page_fetch { page = 3; home = 1 });
      ev 10.0 0 (Obs.Trace.Wait_begin { span = 0; bucket = Obs.Trace.Wb_data; resource = 3 });
      ev 11.0 0 (Obs.Trace.Msg_send { dst = 1; bytes = 64; update = 0 });
      ev 14.0 1 (Obs.Trace.Msg_recv { src = 0; bytes = 64; update = 0 });
      ev 15.0 1 (Obs.Trace.Diff_request { page = 5; writer = 2; intervals = 1 });
      ev 18.0 2 (Obs.Trace.Diff_reply { page = 5; dst = 1; bytes = 40 });
      ev 20.0 0 (Obs.Trace.Wait_end { span = 0; bucket = Obs.Trace.Wb_data; resource = 3 });
      ev 21.0 2 (Obs.Trace.Lock_acquire { lock = 1; remote = true });
      ev 25.0 0 (Obs.Trace.Lock_grant { lock = 1; dst = 2; intervals = 2 });
      ev 26.0 0 (Obs.Trace.Mem_sample { bytes = 4096 });
      ev 30.0 0 (Obs.Trace.Barrier_arrive { epoch = 0; intervals = 2 });
      (* left open on purpose: must not produce a complete event *)
      ev 31.0 1 (Obs.Trace.Wait_begin { span = 1; bucket = Obs.Trace.Wb_lock; resource = 1 });
    ];
  sink

let overflow_sink () =
  let sink = Obs.Trace.create_sink ~capacity:2 () in
  for i = 0 to 4 do
    Obs.Trace.emit sink (ev (float_of_int i) 0 Obs.Trace.Gc_done)
  done;
  sink

(* A hand-written metrics registry exercising every CSV feature: a
   per-node counter (zero-fill), a run-scope counter (node -1), and a
   gauge (last-sample-wins, forward-fill). Histograms and heatmaps live
   in the JSON timeline only, not the CSV. *)
let sample_metrics () =
  let m = Obs.Metrics.create ~interval:10. ~nnodes:2 in
  let msgs = Obs.Metrics.counter m "messages" in
  let events = Obs.Metrics.counter ~per_node:false m "engine_events" in
  let mem = Obs.Metrics.gauge m "proto_mem_bytes" in
  Obs.Metrics.add msgs ~node:0 ~time:0. 1.;
  Obs.Metrics.add msgs ~node:0 ~time:9. 2.;
  Obs.Metrics.add msgs ~node:1 ~time:25. 4.;
  Obs.Metrics.add events ~node:0 ~time:12. 7.;
  Obs.Metrics.sample mem ~node:0 ~time:5. 128.;
  Obs.Metrics.sample mem ~node:0 ~time:8. 256.;
  Obs.Metrics.sample mem ~node:1 ~time:22. 64.5;
  m

let () =
  let sink = sample_sink () in
  Obs.Export.write_file Obs.Export.Jsonl "golden_trace.jsonl" sink;
  Obs.Export.write_file Obs.Export.Chrome "golden_trace_chrome.json" sink;
  Obs.Export.write_file Obs.Export.Jsonl "golden_overflow.jsonl" (overflow_sink ());
  Obs.Export.write_metrics_csv "golden_metrics.csv" (sample_metrics ())
