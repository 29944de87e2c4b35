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

(* The tentpole's hard requirement: a prefetched parallel sweep must be
   byte-identical to the sequential one — rendered table, JSON dump and
   trace-sink contents alike. *)
let test_parallel_determinism () =
  let node_counts = [ 2 ] in
  let sweep jobs =
    let sink = Obs.Trace.create_sink ~capacity:10_000 () in
    let m = Harness.Matrix.create ~verify:false ~sink ~scale:Apps.Registry.Test () in
    let pool = Harness.Pool.create ~jobs in
    if Harness.Pool.jobs pool > 1 then
      Harness.Matrix.prefetch m pool (Harness.Tables.table2_cells m ~node_counts);
    let table = render (fun ppf -> Harness.Tables.table2 ppf m ~node_counts) in
    let json = Obs.Json.to_string_pretty (Harness.Matrix.to_json m) in
    (table, json, Obs.Trace.events sink, Obs.Trace.dropped sink)
  in
  let t1, j1, e1, d1 = sweep 1 in
  let t4, j4, e4, d4 = sweep 4 in
  check Alcotest.string "rendered table identical" t1 t4;
  check Alcotest.string "json dump identical" j1 j4;
  check Alcotest.bool "trace events identical" true (e1 = e4);
  check Alcotest.int "trace drop count identical" d1 d4

(* A failing soak cell prints the svm_run line that replays it: every knob
   the runner sets, floats exact, one flag group per scheduled fault. *)
let test_soak_replay_line () =
  let chaos =
    {
      Machine.Chaos.none with
      Machine.Chaos.jitter = 5.;
      faults =
        [
          Machine.Chaos.Kill { node = 2; at = 0.1 };
          Machine.Chaos.Pause { node = 3; from_ = 531017.15633475094; until = 534017.25 };
          Machine.Chaos.Partition { group = [ 3; 1 ]; from_ = 1000.; until = 4000.5 };
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
     --seed 42 --replicas 2 --repl-scheme backup --detector heartbeat --hb-interval 200 \
     --hb-timeout 800 --drop-rate 0 --dup-rate 0 --jitter 5 --straggler 1 --fault-seed 0 \
     --detect-delay 500 --kill-node 2 --kill-at 0.10000000000000001 --pause 3 --pause-at \
     531017.15633475094 --resume-at 534017.25 --partition 3,1 --partition-at 1000 --heal-at \
     4000.5"
    line;
  (* The line replays: svm_run's parser rebuilds exactly this config, so no
     knob is omitted and every flag is spelled as the CLI spells it. *)
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

let suite =
  [
    ("matrix caches runs", `Quick, test_matrix_caches);
    ("soak replay line", `Quick, test_soak_replay_line);
    ("cells canonical order", `Quick, test_cells_canonical_order);
    ("parallel determinism", `Slow, test_parallel_determinism);
    ("speedup definition", `Quick, test_speedup_definition);
    ("all tables render", `Slow, test_tables_render);
    ("memory headline", `Quick, test_memory_headline);
    ("protocol traffic headline", `Quick, test_protocol_traffic_headline);
  ]
