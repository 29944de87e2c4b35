(* Harness tests: the run matrix caches and the table generators produce
   well-formed output with the paper's qualitative relationships. *)

let check = Alcotest.check

let test_matrix_caches () =
  let m = Harness.Matrix.create ~verify:false ~scale:Apps.Registry.Test () in
  let app = Apps.Registry.sor Apps.Registry.Test in
  let calls = ref 0 in
  Harness.Matrix.on_progress m (fun _ -> incr calls);
  let r1 = Harness.Matrix.get m app Svm.Config.Hlrc 4 in
  let r2 = Harness.Matrix.get m app Svm.Config.Hlrc 4 in
  check Alcotest.bool "same report object" true (r1 == r2);
  check Alcotest.int "one simulation" 1 !calls

(* Cells trace into their own sinks, which merge into the shared one in
   request order: a miss stores exactly what its run stores when it traces
   directly, a hit adds nothing, and a prefetched grid stores what its
   cells would, traced in order into one sink, drops included. *)
let test_matrix_traces_like_runs () =
  let sor = Apps.Registry.sor Apps.Registry.Test and lu = Apps.Registry.lu Apps.Registry.Test in
  let capacity = 1_000 in
  let sink = Obs.Trace.create_sink ~capacity () in
  let m =
    Harness.Matrix.create ~verify:false ~sink ~pool:(Harness.Pool.create ~jobs:2)
      ~scale:Apps.Registry.Test ()
  in
  let calls = ref 0 in
  Harness.Matrix.on_progress m (fun _ -> incr calls);
  let direct = Obs.Trace.create_sink ~capacity () in
  let run ((app : Apps.Registry.t), proto, np) =
    ignore
      (Svm.Runtime.run ~sink:direct (Svm.Config.make ~nprocs:np proto)
         (app.Apps.Registry.body ~verify:false))
  in
  let same what =
    check Alcotest.bool (what ^ ": same events, same order") true
      (Obs.Trace.events sink = Obs.Trace.events direct);
    check Alcotest.int (what ^ ": same drop count") (Obs.Trace.dropped direct)
      (Obs.Trace.dropped sink);
    check
      Alcotest.(list (pair string int))
      (what ^ ": same drops by kind") (Obs.Trace.dropped_by_kind direct)
      (Obs.Trace.dropped_by_kind sink)
  in
  ignore (Harness.Matrix.get m sor Svm.Config.Hlrc 4);
  run (sor, Svm.Config.Hlrc, 4);
  same "a miss";
  let stored = Obs.Trace.length sink in
  ignore (Harness.Matrix.get m sor Svm.Config.Hlrc 4);
  check Alcotest.int "a hit stores nothing" stored (Obs.Trace.length sink);
  check Alcotest.int "a hit announces nothing" 1 !calls;
  let grid = [ (lu, Svm.Config.Lrc, 2); (sor, Svm.Config.Lrc, 4) ] in
  Harness.Matrix.prefetch m grid;
  List.iter run grid;
  check Alcotest.bool "the grid overflows the sink" true (Obs.Trace.dropped direct > 0);
  same "a grid";
  check Alcotest.int "each cell announced once" 3 !calls

let test_speedup_definition () =
  let m = Harness.Matrix.create ~verify:false ~scale:Apps.Registry.Test () in
  let app = Apps.Registry.sor Apps.Registry.Test in
  let s = Harness.Matrix.speedup m app Svm.Config.Hlrc 4 in
  check Alcotest.bool "speedup positive" true (s > 0.);
  let seq = Harness.Matrix.seq_time m app in
  let elapsed = (Harness.Matrix.get m app Svm.Config.Hlrc 4).Svm.Runtime.r_elapsed in
  check (Alcotest.float 1e-9) "speedup = seq/elapsed" (seq /. elapsed) s

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_tables_render () =
  let m = Harness.Matrix.create ~verify:false ~scale:Apps.Registry.Test () in
  let node_counts = [ 2; 4 ] in
  let t1 = render (fun ppf -> Harness.Tables.table1 ppf m) in
  check Alcotest.bool "table1 lists all apps" true
    (List.for_all (fun n -> contains t1 n) [ "LU"; "SOR"; "Water-Nsquared"; "Raytrace" ]);
  let t2 = render (fun ppf -> Harness.Tables.table2 ppf m ~node_counts) in
  check Alcotest.bool "table2 lists protocols" true
    (List.for_all (fun p -> contains t2 p) [ "LRC"; "OLRC"; "HLRC"; "OHLRC" ]);
  check Alcotest.bool "table2 titles the node counts given" true
    (contains t2 "=== Table 2: speedups on 2 and 4 nodes ===");
  let t3 = render (fun ppf -> Harness.Tables.table3 ppf) in
  check Alcotest.bool "table3 shows the 1172us miss" true (contains t3 "1172");
  let t4 = render (fun ppf -> Harness.Tables.table4 ppf m ~node_counts) in
  check Alcotest.bool "table4 rendered" true (contains t4 "rdmiss");
  let t5 = render (fun ppf -> Harness.Tables.table5 ppf m ~node_counts) in
  check Alcotest.bool "table5 rendered" true (contains t5 "upd MB");
  let t6 = render (fun ppf -> Harness.Tables.table6 ppf m ~node_counts) in
  check Alcotest.bool "table6 rendered" true (contains t6 "app KB");
  let f3 = render (fun ppf -> Harness.Tables.figure3 ppf m ~node_counts) in
  check Alcotest.bool "figure3 rendered" true (contains f3 "comp");
  let f4 = render (fun ppf -> Harness.Tables.figure4 ppf m ~node_counts ~epoch:2) in
  check Alcotest.bool "figure4 rendered" true (contains f4 "cpu");
  let sz = render (fun ppf -> Harness.Tables.sor_zero ppf m ~node_counts) in
  check Alcotest.bool "sor-zero rendered" true (contains sz "LRC/HLRC")

(* Qualitative headline of the paper at a size our Test scale can support:
   HLRC must never lose badly to LRC, and its protocol memory must stay far
   below LRC's on a diff-heavy workload. *)
let test_memory_headline () =
  let m = Harness.Matrix.create ~verify:false ~scale:Apps.Registry.Test () in
  let app = Apps.Registry.water_nsq Apps.Registry.Test in
  let lrc = Harness.Matrix.get m app Svm.Config.Lrc 8 in
  let hlrc = Harness.Matrix.get m app Svm.Config.Hlrc 8 in
  check Alcotest.bool "HLRC uses less protocol memory" true
    (Svm.Runtime.max_mem_peak hlrc < Svm.Runtime.max_mem_peak lrc)

let test_protocol_traffic_headline () =
  let m = Harness.Matrix.create ~verify:false ~scale:Apps.Registry.Test () in
  let app = Apps.Registry.water_nsq Apps.Registry.Test in
  let lrc = Harness.Matrix.get m app Svm.Config.Lrc 8 in
  let hlrc = Harness.Matrix.get m app Svm.Config.Hlrc 8 in
  check Alcotest.bool "home-based protocol data is cheaper" true
    (Svm.Runtime.total_protocol_bytes hlrc < Svm.Runtime.total_protocol_bytes lrc)

(* Satellite: [Matrix.cells] must list protocols in the paper's canonical
   order (LRC, OLRC, HLRC, OHLRC, ...), not alphabetically. *)
let test_cells_canonical_order () =
  let m = Harness.Matrix.create ~verify:false ~scale:Apps.Registry.Test () in
  let app = Apps.Registry.sor Apps.Registry.Test in
  (* Populate in a scrambled order; [cells] must sort it back. *)
  List.iter
    (fun p -> ignore (Harness.Matrix.get m app p 2))
    [ Svm.Config.Ohlrc; Svm.Config.Hlrc; Svm.Config.Lrc; Svm.Config.Olrc ];
  let protos = List.map (fun (_, p, _, _) -> p) (Harness.Matrix.cells m) in
  check
    (Alcotest.list (Alcotest.testable (fun ppf p -> Format.pp_print_string ppf (Svm.Config.protocol_name p)) ( = )))
    "canonical protocol order"
    [ Svm.Config.Lrc; Svm.Config.Olrc; Svm.Config.Hlrc; Svm.Config.Ohlrc ]
    protos

(* Every artifact that reads the matrix prints, dumps and traces the same
   bytes at any pool width, also when the shared sink overflows: each
   renderer evaluates its grid on the pool, and the per-cell sinks merge in
   the grid's order. *)
let test_parallel_determinism () =
  let node_counts = [ 2 ] in
  let sweep jobs =
    let sink = Obs.Trace.create_sink ~capacity:5_000 () in
    let m =
      Harness.Matrix.create ~verify:false ~sink ~pool:(Harness.Pool.create ~jobs)
        ~scale:Apps.Registry.Test ()
    in
    let text =
      render (fun ppf ->
          Harness.Tables.table1 ppf m;
          Harness.Tables.table2 ppf m ~node_counts;
          Harness.Tables.table4 ppf m ~node_counts;
          Harness.Tables.table5 ppf m ~node_counts;
          Harness.Tables.table6 ppf m ~node_counts;
          Harness.Tables.figure3 ppf m ~node_counts;
          Harness.Tables.figure4 ppf m ~node_counts ~epoch:2;
          Harness.Tables.sor_zero ppf m ~node_counts;
          Harness.Ablations.aurc_comparison ppf m ~node_counts)
    in
    let json = Obs.Json.to_string (Harness.Matrix.to_json m) in
    (text, json, sink)
  in
  let t1, j1, s1 = sweep 1 in
  let t3, j3, s3 = sweep 3 in
  check Alcotest.string "rendered text identical" t1 t3;
  check Alcotest.string "json dump identical" j1 j3;
  check Alcotest.bool "trace events identical" true (Obs.Trace.events s1 = Obs.Trace.events s3);
  check Alcotest.bool "the sink overflowed" true (Obs.Trace.dropped s1 > 0);
  check Alcotest.int "trace drop count identical" (Obs.Trace.dropped s1) (Obs.Trace.dropped s3);
  check
    Alcotest.(list (pair string int))
    "drops by kind identical" (Obs.Trace.dropped_by_kind s1) (Obs.Trace.dropped_by_kind s3)

(* A failing soak cell prints the svm_run line that replays it: every knob
   the runner sets, floats exact, one flag per scheduled fault. *)
let test_soak_replay_line () =
  let chaos =
    {
      Machine.Chaos.none with
      Machine.Chaos.jitter = 5.;
      faults =
        [
          Machine.Chaos.Kill { node = 2; at = 0.1 };
          Machine.Chaos.Kill { node = 3; at = 900000.5 };
          Machine.Chaos.Pause { node = 3; from_ = 531017.15633475094; until = 534017.25 };
          Machine.Chaos.Pause { node = 1; from_ = 10.; until = 20. };
          Machine.Chaos.Partition { group = [ 3; 1 ]; from_ = 1000.; until = 4000.5 };
          Machine.Chaos.Partition { group = [ 2 ]; from_ = 5000.; until = 6000. };
        ];
    }
  in
  let cfg =
    Svm.Config.make ~nprocs:4 ~replicas:2 ~repl_scheme:Svm.Config.Backup
      ~detector:Svm.Config.Heartbeat ~hb_timeout:800. ~chaos Svm.Config.Ohlrc
  in
  let line = Harness.Soak.replay_line ~scale:Apps.Registry.Test ~app:"Water-Nsquared" cfg in
  check Alcotest.string "replay line"
    "dune exec bin/svm_run.exe -- --app water-nsquared --protocol ohlrc --nodes 4 --scale test \
     --replicas 2 --repl-scheme backup --detector heartbeat --hb-interval 200 \
     --hb-timeout 800 --drop-rate 0 --dup-rate 0 --jitter 5 --straggler 1 --fault-seed 0 \
     --detect-delay 500 --kill 2@0.10000000000000001 --kill 3@900000.5 --pause \
     3@531017.15633475094:534017.25 --pause 1@10:20 --partition 3,1@1000:4000.5 --partition \
     2@5000:6000"
    line;
  (* The line replays: svm_run's parser rebuilds exactly this config, so no
     knob is omitted and every flag is spelled as the CLI spells it. *)
  let replays cfg =
    let line = Harness.Soak.replay_line ~scale:Apps.Registry.Test ~app:"Water-Nsquared" cfg in
    let args =
      match String.split_on_char ' ' line with
      | "dune" :: "exec" :: _exe :: "--" :: args -> args
      | _ -> Alcotest.fail line
    in
    match Test_cli.parse_run args with
    | Ok o ->
        check Alcotest.bool "parsed config = printed config" true (o.Harness.Cli.cfg = cfg);
        check Alcotest.string "application" "Water-Nsquared" o.Harness.Cli.app.Apps.Registry.name
    | Error e -> Alcotest.fail e
  in
  replays cfg;
  (* A schedule given with its kinds interleaved is stored kind-major, the
     order the CLI builds, so its replay line parses back to an equal
     config too. *)
  replays
    (Svm.Config.make ~nprocs:4 ~replicas:2 Svm.Config.Hlrc
       ~chaos:
         {
           Machine.Chaos.none with
           Machine.Chaos.faults =
             [
               Machine.Chaos.Pause { node = 1; from_ = 10.; until = 20. };
               Machine.Chaos.Kill { node = 3; at = 500. };
               Machine.Chaos.Partition { group = [ 2 ]; from_ = 30.; until = 40. };
               Machine.Chaos.Kill { node = 2; at = 100. };
             ];
         })

let suite =
  [
    ("matrix caches runs", `Quick, test_matrix_caches);
    ("matrix traces like direct runs", `Quick, test_matrix_traces_like_runs);
    ("soak replay line", `Quick, test_soak_replay_line);
    ("cells canonical order", `Quick, test_cells_canonical_order);
    ("parallel determinism", `Slow, test_parallel_determinism);
    ("speedup definition", `Quick, test_speedup_definition);
    ("all tables render", `Slow, test_tables_render);
    ("memory headline", `Quick, test_memory_headline);
    ("protocol traffic headline", `Quick, test_protocol_traffic_headline);
  ]
