(* Observability layer: JSON printer/parser, bounded sink, trace-event
   determinism, the JSONL and Chrome exporters, the legacy trace lines a
   sink tap prints, and report-JSON schema validation. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("null", Obs.Json.Null);
        ("bools", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Bool false ]);
        ("ints", Obs.Json.List [ Obs.Json.Int 0; Obs.Json.Int (-42); Obs.Json.Int max_int ]);
        ( "floats",
          Obs.Json.List
            [
              Obs.Json.Float 0.1;
              Obs.Json.Float (-1e-9);
              Obs.Json.Float 55508.060703143194;
              Obs.Json.Float 1e300;
            ] );
        ("string", Obs.Json.String "quote \" backslash \\ newline \n unicode \xe2\x82\xac");
        ("nested", Obs.Json.Obj [ ("empty_list", Obs.Json.List []); ("empty_obj", Obs.Json.Obj []) ]);
      ]
  in
  let round s = match Obs.Json.of_string s with Ok j -> j | Error e -> Alcotest.fail e in
  check Alcotest.bool "compact round-trips" true (round (Obs.Json.to_string doc) = doc);
  check Alcotest.bool "pretty round-trips" true (round (Report_cases.pretty doc) = doc)

let test_json_determinism () =
  let doc = Obs.Json.Obj [ ("x", Obs.Json.Float 0.1); ("y", Obs.Json.Float 3.0) ] in
  check Alcotest.string "serialization is stable" (Obs.Json.to_string doc)
    (Obs.Json.to_string doc);
  (* integral floats print distinctly from ints, and both parse back *)
  check Alcotest.string "integral float" "3.0" (Obs.Json.float_string 3.0);
  check Alcotest.bool "nan is null" true (Obs.Json.float_string Float.nan = "null")

let test_json_rejects_malformed () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ] in
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    bad

(* ------------------------------------------------------------------ *)
(* Sink *)

let test_sink_bounded () =
  let sink = Obs.Trace.create_sink ~capacity:10 () in
  for i = 0 to 24 do
    Obs.Trace.emit sink
      { Obs.Trace.time = float_of_int i; node = 0; kind = Obs.Trace.Gc_done }
  done;
  check Alcotest.int "capacity caps storage" 10 (Obs.Trace.length sink);
  check Alcotest.int "overflow counted" 15 (Obs.Trace.dropped sink);
  let times = List.map (fun e -> e.Obs.Trace.time) (Obs.Trace.events sink) in
  check Alcotest.bool "keeps the earliest events in order" true
    (times = List.init 10 float_of_int)

(* ------------------------------------------------------------------ *)
(* Trace capture on real runs *)

let traced_run ?(protocol = Svm.Config.Hlrc) ?(nprocs = 4) () =
  let app = Apps.Registry.lu Apps.Registry.Test in
  let sink = Obs.Trace.create_sink () in
  let cfg = Svm.Config.make ~nprocs protocol in
  let r = Svm.Runtime.run ~sink cfg (app.Apps.Registry.body ~verify:false) in
  (r, sink)

let test_trace_deterministic () =
  let r1, s1 = traced_run () in
  let r2, s2 = traced_run () in
  check Alcotest.bool "same seed, same events" true
    (Obs.Trace.events s1 = Obs.Trace.events s2);
  check Alcotest.bool "some events were captured" true (Obs.Trace.length s1 > 0);
  check Alcotest.string "byte-identical JSON reports"
    (Obs.Json.to_string (Svm.Report_json.encode r1))
    (Obs.Json.to_string (Svm.Report_json.encode r2))

let test_trace_covers_protocol_activity () =
  let _, s = traced_run () in
  let names = List.map (fun e -> Obs.Trace.kind_name e.Obs.Trace.kind) (Obs.Trace.events s) in
  List.iter
    (fun expected ->
      check Alcotest.bool (expected ^ " present") true (List.mem expected names))
    [ "page_fetch"; "diff_create"; "diff_flush"; "barrier_arrive"; "barrier_release";
      "interval_end"; "msg_send"; "msg_recv" ]

(* The causal links on a hand-written sink: FIFO per channel, local lock
   acquires open nothing, diff replies pair by (page, writer, requester),
   and a closer whose opener was not stored gets [None]. The first pair's
   send comes from a small per-cell sink that dropped the second send. *)
let test_iter_linked () =
  let ev time node kind = { Obs.Trace.time; node; kind } in
  let send dst = Obs.Trace.Msg_send { dst; bytes = 8; update = 0 } in
  let recv src = Obs.Trace.Msg_recv { src; bytes = 8; update = 0 } in
  let small = Obs.Trace.create_sink ~capacity:1 () in
  List.iter (Obs.Trace.emit small) [ ev 1. 2 (send 0); ev 2. 2 (send 0) ];
  let sink = Obs.Trace.create_sink () in
  Obs.Trace.absorb sink small;
  List.iter (Obs.Trace.emit sink)
    [
      ev 3. 0 (send 1);
      ev 4. 0 (send 1);
      ev 5. 1 (recv 0);
      ev 6. 1 (recv 0);
      ev 7. 0 (recv 2);
      ev 8. 0 (recv 2);
      ev 9. 1 (Obs.Trace.Lock_acquire { lock = 3; remote = false });
      ev 10. 0 (Obs.Trace.Lock_grant { lock = 3; dst = 1; intervals = 0 });
      ev 11. 2 (Obs.Trace.Lock_acquire { lock = 3; remote = true });
      ev 12. 0 (Obs.Trace.Lock_grant { lock = 3; dst = 2; intervals = 1 });
      ev 13. 1 (Obs.Trace.Diff_request { page = 5; writer = 2; intervals = 1 });
      ev 14. 3 (Obs.Trace.Diff_request { page = 5; writer = 0; intervals = 1 });
      ev 15. 0 (Obs.Trace.Diff_reply { page = 5; dst = 3; bytes = 16 });
      ev 16. 2 (Obs.Trace.Diff_reply { page = 5; dst = 1; bytes = 16 });
      ev 17. 1 (Obs.Trace.Wait_end { span = 9; bucket = Obs.Trace.Wb_data; resource = 5 });
      ev 18. 1 (Obs.Trace.Wait_begin { span = 4; bucket = Obs.Trace.Wb_lock; resource = 3 });
      ev 19. 1 (Obs.Trace.Wait_end { span = 4; bucket = Obs.Trace.Wb_lock; resource = 3 });
    ];
  let links = ref [] in
  Obs.Trace.iter_linked sink (fun ev opener ->
      links := (ev.Obs.Trace.time, Option.map (fun o -> o.Obs.Trace.time) opener) :: !links);
  check
    Alcotest.(list (pair (float 0.) (option (float 0.))))
    "each closer's opener"
    [
      (1., None); (3., None); (4., None); (5., Some 3.); (6., Some 4.); (7., Some 1.);
      (8., None); (9., None); (10., None); (11., None); (12., Some 11.); (13., None);
      (14., None); (15., Some 14.); (16., Some 13.); (17., None); (18., None); (19., Some 18.);
    ]
    (List.rev !links)

(* ------------------------------------------------------------------ *)
(* Exporters *)

(* The whole document an exporter writes, gathered from its pieces. *)
let export f sink =
  let buf = Buffer.create 4096 in
  f (Buffer.add_string buf) sink;
  Buffer.contents buf

let test_jsonl_roundtrip () =
  let _, sink = traced_run () in
  let lines = String.split_on_char '\n' (String.trim (export Obs.Export.jsonl sink)) in
  check Alcotest.int "one line per event" (Obs.Trace.length sink) (List.length lines);
  List.iter2
    (fun line ev ->
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "line is not JSON (%s): %s" e line
      | Ok j ->
          check Alcotest.bool "ev tag matches" true
            (Obs.Json.member "ev" j = Some (Obs.Json.String (Obs.Trace.kind_name ev.Obs.Trace.kind)));
          check Alcotest.bool "node matches" true
            (Option.bind (Obs.Json.member "node" j) Obs.Json.to_int = Some ev.Obs.Trace.node);
          check Alcotest.bool "ts matches" true
            (Option.bind (Obs.Json.member "ts" j) Obs.Json.to_float = Some ev.Obs.Trace.time))
    lines (Obs.Trace.events sink)

let chrome_events sink =
  let doc =
    match Obs.Json.of_string (export Obs.Export.chrome sink) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
  | Some l -> l
  | None -> Alcotest.fail "no traceEvents array"

let json_str name j =
  match Obs.Json.member name j with Some (Obs.Json.String s) -> Some s | _ -> None

let test_chrome_wellformed () =
  let nprocs = 4 in
  let _, sink = traced_run ~nprocs () in
  let events = chrome_events sink in
  let phase j = json_str "ph" j in
  let by p = List.filter (fun j -> phase j = Some p) events in
  (* one process_name + one thread_name per node *)
  check Alcotest.int "metadata records" (1 + nprocs) (List.length (by "M"));
  check Alcotest.int "one instant per stored event" (Obs.Trace.length sink)
    (List.length (by "i"));
  List.iter
    (fun j ->
      let tid = Option.bind (Obs.Json.member "tid" j) Obs.Json.to_int in
      check Alcotest.bool "tid is a node id" true
        (match tid with Some t -> t >= 0 && t < nprocs | None -> false);
      check Alcotest.bool "has a timestamp" true
        (Option.bind (Obs.Json.member "ts" j) Obs.Json.to_float <> None))
    (by "i");
  (* flow arrows come in pairs: the start and finish id multisets match *)
  let ids p =
    List.sort compare
      (List.filter_map (fun j -> Option.bind (Obs.Json.member "id" j) Obs.Json.to_int) (by p))
  in
  check Alcotest.(list int) "every flow start has its finish" (ids "s") (ids "f");
  check Alcotest.bool "flows were drawn" true (ids "s" <> []);
  (* counter tracks (cumulative sent bytes) carry their value in args *)
  check Alcotest.bool "sent-bytes counters exist" true (by "C" <> []);
  List.iter
    (fun j ->
      check Alcotest.bool "counter has args" true (Obs.Json.member "args" j <> None))
    (by "C")

(* The causal layer (Config.trace_spans): waits export as "ph":"X" slices
   with non-negative durations named after their Figure-3 bucket, and memory
   counter tracks appear alongside the traffic ones. *)
let profiled_run ?(protocol = Svm.Config.Hlrc) ?(nprocs = 4) () =
  let app = Apps.Registry.lu Apps.Registry.Test in
  let sink = Obs.Trace.create_sink () in
  let cfg = Svm.Config.make ~nprocs ~trace_spans:true protocol in
  let r = Svm.Runtime.run ~sink cfg (app.Apps.Registry.body ~verify:false) in
  (r, sink)

let test_chrome_causal_layer () =
  let _, sink = profiled_run () in
  let events = chrome_events sink in
  let xs = List.filter (fun j -> json_str "ph" j = Some "X") events in
  check Alcotest.bool "wait slices exist" true (xs <> []);
  List.iter
    (fun j ->
      (match Option.bind (Obs.Json.member "dur" j) Obs.Json.to_float with
      | Some d -> check Alcotest.bool "slice duration non-negative" true (d >= 0.)
      | None -> Alcotest.fail "complete event without dur");
      match json_str "name" j with
      | Some n ->
          check Alcotest.bool "slice named after its bucket" true
            (String.length n > 5 && String.sub n 0 5 = "wait:")
      | None -> Alcotest.fail "complete event without name")
    xs

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Regression for the byte-identity guarantee: without Config.trace_spans
   the runtime must emit none of the causal-layer kinds, so default JSONL
   output is unchanged from before the profiler existed. *)
let test_default_trace_has_no_causal_kinds () =
  let _, sink = traced_run () in
  let doc = export Obs.Export.jsonl sink in
  List.iter
    (fun k ->
      check Alcotest.bool (k ^ " absent without trace_spans") false
        (contains doc (Printf.sprintf "\"ev\":%S" k)))
    [ "wait_begin"; "wait_end"; "mem_sample"; "diff_reply" ]

(* Both exporters surface sink truncation rather than hiding it. *)
let test_export_overflow_records () =
  let app = Apps.Registry.lu Apps.Registry.Test in
  let sink = Obs.Trace.create_sink ~capacity:50 () in
  let cfg = Svm.Config.make ~nprocs:4 Svm.Config.Hlrc in
  ignore (Svm.Runtime.run ~sink cfg (app.Apps.Registry.body ~verify:false));
  check Alcotest.bool "sink overflowed" true (Obs.Trace.dropped sink > 0);
  let tail =
    match List.rev (String.split_on_char '\n' (String.trim (export Obs.Export.jsonl sink))) with
    | last :: _ -> last
    | [] -> Alcotest.fail "empty jsonl"
  in
  check Alcotest.bool "jsonl ends with the dropped record" true
    (contains tail "\"ev\":\"dropped\"");
  check Alcotest.bool "chrome reports droppedEvents" true
    (contains (export Obs.Export.chrome sink) "\"droppedEvents\":")

(* The exporter hands its writer one record at a time: on an overflowing
   run, the pieces join into the event lines and the dropped record, and
   none comes near the size of the document. *)
let test_jsonl_streams () =
  let app = Apps.Registry.lu Apps.Registry.Test in
  let sink = Obs.Trace.create_sink ~capacity:1_000 () in
  let cfg = Svm.Config.make ~nprocs:8 ~trace_spans:true Svm.Config.Hlrc in
  ignore (Svm.Runtime.run ~sink cfg (app.Apps.Registry.body ~verify:false));
  check Alcotest.bool "sink overflowed" true (Obs.Trace.dropped sink > 0);
  let pieces = ref [] in
  Obs.Export.jsonl (fun p -> pieces := p :: !pieces) sink;
  let doc = String.concat "" (List.rev !pieces) in
  let events = Buffer.create 4096 in
  Obs.Trace.iter sink (fun ev ->
      Buffer.add_string events (Obs.Json.to_string (Obs.Trace.to_json ev) ^ "\n"));
  let prefix = Buffer.contents events in
  let n = String.length prefix in
  check Alcotest.string "events first, in order" prefix (String.sub doc 0 n);
  (match Obs.Json.of_string (String.sub doc n (String.length doc - n)) with
  | Ok j ->
      check Alcotest.bool "then the dropped record" true
        (Obs.Json.member "ev" j = Some (Obs.Json.String "dropped")
        && Option.bind (Obs.Json.member "count" j) Obs.Json.to_int
           = Some (Obs.Trace.dropped sink))
  | Error e -> Alcotest.failf "last line is not one JSON record: %s" e);
  let largest = List.fold_left (fun m p -> max m (String.length p)) 0 !pieces in
  check Alcotest.bool "the document is over 64 KB" true (String.length doc > 65536);
  check Alcotest.bool "every piece is under 64 KB" true (largest < 65536)

(* Every output file goes through one writer: writing into a missing
   directory is one line naming the file's kind, never a [Sys_error]. *)
let test_write_file_reports_errors () =
  let sink = Obs.Trace.create_sink ~capacity:4 () in
  let r, _ = traced_run () in
  List.iter
    (fun (what, write) ->
      let file = "/nonexistent-dir-xyz/out" in
      match write file with
      | () -> Alcotest.failf "writing a %s file into a missing directory succeeded" what
      | exception Failure msg ->
          check Alcotest.string "one-line error"
            (Printf.sprintf "cannot write %s file: %s: No such file or directory" what file)
            msg)
    [
      ("trace", fun file -> Obs.Export.write_file Obs.Export.Jsonl file sink);
      ( "metrics",
        fun file -> Obs.Export.write_metrics_csv file (Obs.Metrics.create ~interval:1. ~nnodes:1) );
      ("report", fun file -> Obs.Export.write_json ~what:"report" file (Svm.Report_json.encode r));
    ]

(* ------------------------------------------------------------------ *)
(* Legacy string-trace lines: a tap on the sink *)

let test_legacy_adapter_matches_typed_stream () =
  (* [svm_run -t] prints from a tap on a capacity-0 sink. The tap must see
     exactly the stream a storing sink records, so every printed line is the
     rendering of the corresponding typed event, and it must retain none of
     it. *)
  let app = Apps.Registry.lu Apps.Registry.Test in
  let cfg = Svm.Config.make ~nprocs:4 Svm.Config.Hlrc in
  let line (e : Obs.Trace.event) = Option.map (fun l -> (e.time, l)) (Obs.Trace.legacy_line e) in
  let lines = ref [] in
  let tap e = Option.iter (fun l -> lines := l :: !lines) (line e) in
  let tapped = Obs.Trace.create_sink ~capacity:0 ~tap () in
  ignore (Svm.Runtime.run ~sink:tapped cfg (app.Apps.Registry.body ~verify:false));
  let sink = Obs.Trace.create_sink () in
  ignore (Svm.Runtime.run ~sink cfg (app.Apps.Registry.body ~verify:false));
  check Alcotest.bool "legacy lines were produced" true (!lines <> []);
  check Alcotest.bool "tap output = rendered typed stream" true
    (List.rev !lines = List.filter_map line (Obs.Trace.events sink));
  check Alcotest.int "tap-only sink retains nothing" 0 (Obs.Trace.length tapped);
  (* Absorbed events were emitted into another sink: they reach no tap. *)
  let tapped_dst = ref 0 in
  let dst = Obs.Trace.create_sink ~tap:(fun _ -> incr tapped_dst) () in
  Obs.Trace.absorb dst sink;
  check Alcotest.int "absorb stores every event" (Obs.Trace.length sink) (Obs.Trace.length dst);
  check Alcotest.int "absorb bypasses the tap" 0 !tapped_dst

(* Every kind's [-t] line, exact, or [None] for the kinds the legacy
   tracer never printed: svm_run -t and examples/protocol_trace.ml print
   these bytes. *)
let test_legacy_render_exact_strings () =
  let open Obs.Trace in
  let cases =
    [
      (Page_fetch { page = 3; home = 1 }, Some "page fault: fetch page 3 from home 1");
      (Page_fetch_pending { page = 4 }, Some "fetch of page 4 pending (flush behind)");
      ( Batch_fetch { page = 8; home = 2; pages = 3 },
        Some "batched fetch: 3 pages from 8 at home 2" );
      (Full_page_fetch { page = 5; source = 6 }, Some "full-page fetch: page 5 from node 6");
      ( Diff_request { page = 7; writer = 1; intervals = 2 },
        Some "diff request: page 7 from writer 1 (2 intervals)" );
      (Diff_create { page = 0; words = 8; bytes = 100 }, None);
      (Diff_apply { page = 0; words = 8; bytes = 100 }, None);
      ( Diff_flush { page = 9; writer = 3; index = 4; bytes = 64 },
        Some "applied flush diff for page 9 from node 3 (interval 4)" );
      ( Au_stamp { page = 9; writer = 3; index = 5 },
        Some "AU flush stamp for page 9 from node 3 (interval 5)" );
      ( Eager_update { page = 2; writer = 1; bytes = 32 },
        Some "applied eager update for page 2 from node 1" );
      (Write_notice { writer = 1; index = 2; pages = 3 }, None);
      (Interval_end { index = 6; pages = [ 1; 2; 10 ] }, Some "interval 6 ends: pages [1;2;10]");
      (Interval_end { index = 7; pages = [] }, Some "interval 7 ends: pages []");
      (Lock_acquire { lock = 5; remote = true }, Some "remote acquire of lock 5");
      (Lock_acquire { lock = 5; remote = false }, None);
      ( Lock_grant { lock = 2; dst = 5; intervals = 4 },
        Some "grant lock 2 to node 5 (4 interval records)" );
      (Lock_queued { lock = 2; requester = 3 }, Some "lock 2 busy; node 3 queued");
      (Home_wait { page = 11 }, Some "home-wait: page 11 flush behind");
      ( Barrier_arrive { epoch = 3; intervals = 2 },
        Some "enters barrier (2 own interval records)" );
      (Barrier_release { epoch = 7; gc = true }, Some "barrier 7 completes (gc)");
      (Barrier_release { epoch = 7; gc = false }, Some "barrier 7 completes");
      (Home_migration { page = 12; dst = 3 }, Some "migrating home of page 12 to node 3");
      (Gc_start { mem_bytes = 4096 }, Some "gc: start (protocol memory 4096 bytes)");
      (Gc_done, Some "gc: discarded diffs and interval records");
      (Msg_send { dst = 1; bytes = 64; update = 0 }, None);
      (Msg_recv { src = 1; bytes = 64; update = 0 }, None);
      ( Msg_drop { dst = 2; seq = 9; bytes = 48; ack = false },
        Some "chaos: network dropped message to node 2 (seq 9, 48 bytes)" );
      ( Msg_drop { dst = 2; seq = 9; bytes = 16; ack = true },
        Some "chaos: network dropped ack to node 2 (seq 9, 16 bytes)" );
      ( Msg_retransmit { dst = 1; seq = 4; retries = 2 },
        Some "transport: retransmit seq 4 to node 1 (attempt 2)" );
      (Msg_ack { dst = 3; upto = 17 }, Some "transport: ack up to seq 17 to node 3");
      ( Msg_duplicate_dropped { src = 2; seq = 8 },
        Some "transport: dropped duplicate seq 8 from node 2" );
      ( Watchdog_stall { blocked = 3; inflight = 1 },
        Some "watchdog: no progress (3 blocked nodes, 1 in-flight packets)" );
      (Wait_begin { span = 1; bucket = Wb_lock; resource = 2 }, None);
      (Wait_end { span = 1; bucket = Wb_lock; resource = 2 }, None);
      (Mem_sample { bytes = 1024 }, None);
      (Diff_reply { page = 7; dst = 2; bytes = 40 }, None);
      (Node_kill { node = 3 }, Some "chaos: node 3 killed (links silenced)");
      ( Msg_peer_dead { peer = 3; seq = -1; bytes = 24 },
        Some "transport: peer 3 dead, abandoned seq -1 (24 bytes)" );
      ( Failover { page = 6; from_ = 3; to_ = 0 },
        Some "failover: page 6 re-homed from dead node 3 to node 0" );
      ( Repl_update { page = 6; dst = 1; bytes = 80 },
        Some "replication: update for page 6 to backup 1 (80 bytes)" );
      (Repl_inval { page = 6; dst = 1 }, Some "replication: invalidate page 6 at backup 1");
      (Suspect { peer = 2 }, Some "detector: suspecting node 2 (silent past timeout)");
      (Refute { peer = 2 }, Some "detector: heard node 2 again, suspicion retracted");
      (Depose { node = 2 }, Some "detector: quorum deposed node 2");
      (Rejoin { node = 2 }, Some "detector: node 2 rejoined as fresh replica");
      ( Fenced_fetch { page = 6; requester = 1 },
        Some "fence: refused stale-authority serve of page 6 to node 1" );
    ]
  in
  check Alcotest.int "one row at least for every kind" 42
    (List.length (List.sort_uniq compare (List.map (fun (k, _) -> kind_name k) cases)));
  List.iter
    (fun (kind, expected) ->
      check
        Alcotest.(option string)
        (kind_name kind)
        (Option.map (( ^ ) "[node 2] ") expected)
        (legacy_line { time = 1.; node = 2; kind }))
    cases

(* ------------------------------------------------------------------ *)
(* Report JSON schema *)

let test_report_validates () =
  let r, _ = traced_run () in
  let j =
    match Obs.Json.of_string (Report_cases.pretty (Svm.Report_json.encode r)) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  match Svm.Report_json.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid report rejected: %s" e

let test_validate_rejects_malformed () =
  let r, _ = traced_run () in
  let good = Svm.Report_json.encode r in
  let reject msg j =
    match Svm.Report_json.validate j with
    | Ok () -> Alcotest.failf "validate accepted %s" msg
    | Error _ -> ()
  in
  reject "a non-object" (Obs.Json.Int 3);
  (match good with
  | Obs.Json.Obj fields ->
      reject "a missing totals object"
        (Obs.Json.Obj (List.filter (fun (k, _) -> k <> "totals") fields));
      reject "a wrong schema version"
        (Obs.Json.Obj
           (List.map
              (fun (k, v) -> if k = "schema_version" then (k, Obs.Json.Int 999) else (k, v))
              fields));
      reject "a node-count mismatch"
        (Obs.Json.Obj
           (List.map (fun (k, v) -> if k = "nodes" then (k, Obs.Json.List []) else (k, v)) fields))
  | _ -> Alcotest.fail "encode did not return an object")

(* The trace and critical_path report sections are opt-in: absent (and the
   report byte-identical to before) unless explicitly passed, and the
   validator accepts them when present. *)
let test_report_optional_sections () =
  let r, sink = profiled_run () in
  let plain = Obs.Json.to_string (Svm.Report_json.encode r) in
  check Alcotest.bool "no trace section by default" false (contains plain "\"trace\":");
  check Alcotest.bool "no critical_path section by default" false
    (contains plain "\"critical_path\":");
  let cp = Obs.Critical_path.analyze sink in
  let full = Obs.Json.to_string (Svm.Report_json.encode ~critical_path:cp ~trace:sink r) in
  check Alcotest.bool "trace section surfaces dropped count" true
    (contains full "\"dropped\":");
  check Alcotest.bool "critical_path section present" true
    (contains full "\"critical_path\":");
  match Obs.Json.of_string full with
  | Error e -> Alcotest.failf "report with sections is not JSON: %s" e
  | Ok j -> (
      match Svm.Report_json.validate j with
      | Ok () -> ()
      | Error e -> Alcotest.failf "report with sections rejected: %s" e)

(* Each value nested in [v] with its path, and a function rebuilding [v]
   with that value replaced ([Some]) or removed ([None]). Lists are
   sampled at their first two elements. *)
let rec positions path (v : Obs.Json.t) =
  let nested path x set =
    (path, x, set)
    :: List.map
         (fun (p, y, rebuild) -> (p, y, fun o -> set (Some (rebuild o))))
         (positions path x)
  in
  match v with
  | Obs.Json.Obj fields ->
      List.concat_map
        (fun (k, x) ->
          nested (path ^ "." ^ k) x (function
            | Some x' ->
                Obs.Json.Obj (List.map (fun (k', y) -> (k', if k' = k then x' else y)) fields)
            | None -> Obs.Json.Obj (List.filter (fun (k', _) -> k' <> k) fields)))
        fields
  | Obs.Json.List xs ->
      List.concat
        (List.mapi
           (fun i x ->
             if i >= 2 then []
             else
               nested (Printf.sprintf "%s[%d]" path i) x (function
                 | Some x' -> Obs.Json.List (List.mapi (fun j y -> if j = i then x' else y) xs)
                 | None -> Obs.Json.List (List.filteri (fun j _ -> j <> i) xs)))
           xs)
  | _ -> []

(* A value of another JSON type. *)
let retype = function
  | Obs.Json.Int _ | Obs.Json.Float _ -> Obs.Json.String "0"
  | Obs.Json.String _ -> Obs.Json.Int 0
  | Obs.Json.Bool _ -> Obs.Json.String "true"
  | Obs.Json.List _ -> Obs.Json.Obj []
  | Obs.Json.Obj _ | Obs.Json.Null -> Obs.Json.List []

(* The blocks a report may omit whole, by path (list indices dropped);
   each is one key. Every other optional field belongs to a group of two
   or more (faults and detect_delay; the per-node chaos counters; ...),
   which must appear whole or not at all. *)
let optional_blocks =
  List.map (( ^ ) "report.")
    [
      "meta"; "timeline"; "trace"; "critical_path"; "config.fault_batch"; "config.replication";
      "config.chaos"; "config.detector";
      "nodes[].counters.batch_prefetches"; "totals.serving"; "totals.replication";
      "totals.availability"; "totals.chaos";
    ]

(* [path] with its list indices dropped: nodes[2].id -> nodes[].id. *)
let without_indices path =
  let after_index part =
    let i = String.index part ']' in
    String.sub part i (String.length part - i)
  in
  match String.split_on_char '[' path with
  | [] -> path
  | head :: parts -> String.concat "[" (head :: List.map after_index parts)

(* Completeness of [validate] on reports that carry every conditional
   field: each value changed to another type is rejected, and so is each
   removed field, unless it is a whole optional block or an entry of the
   data-keyed dropped_by_kind map. *)
let test_validate_complete () =
  List.iter
    (fun args ->
      let name = String.concat " " args in
      let doc = Report_cases.report args in
      (match Svm.Report_json.validate doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: valid report rejected: %s" name e);
      List.iter
        (fun (path, v, set) ->
          (match Svm.Report_json.validate (set (Some (retype v))) with
          | Ok () -> Alcotest.failf "%s: accepted %s with another type" name path
          | Error _ -> ());
          let field = path.[String.length path - 1] <> ']' in
          let whole =
            List.mem (without_indices path) optional_blocks
            || contains path ".dropped_by_kind."
          in
          if field && not whole then
            match Svm.Report_json.validate (set None) with
            | Ok () -> Alcotest.failf "%s: accepted %s removed" name path
            | Error _ -> ())
        (positions "report" doc))
    Report_cases.argvs

let suite =
  [
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json determinism", `Quick, test_json_determinism);
    ("json rejects malformed input", `Quick, test_json_rejects_malformed);
    ("sink is bounded", `Quick, test_sink_bounded);
    ("trace is deterministic across same-seed runs", `Quick, test_trace_deterministic);
    ("trace covers the protocol activity", `Quick, test_trace_covers_protocol_activity);
    ("iter_linked pairs each closer with its opener", `Quick, test_iter_linked);
    ("jsonl export round-trips", `Quick, test_jsonl_roundtrip);
    ("chrome export is well-formed", `Quick, test_chrome_wellformed);
    ("chrome causal layer (spans and counters)", `Quick, test_chrome_causal_layer);
    ("default trace has no causal kinds", `Quick, test_default_trace_has_no_causal_kinds);
    ("exporters record sink overflow", `Quick, test_export_overflow_records);
    ("jsonl streams one record per piece", `Quick, test_jsonl_streams);
    ("write_file reports errors cleanly", `Quick, test_write_file_reports_errors);
    ("report sections are opt-in and validate", `Quick, test_report_optional_sections);
    ("legacy adapter matches the typed stream", `Quick, test_legacy_adapter_matches_typed_stream);
    ("legacy render produces the exact old strings", `Quick, test_legacy_render_exact_strings);
    ("report JSON validates", `Quick, test_report_validates);
    ("validate rejects malformed reports", `Quick, test_validate_rejects_malformed);
    ("validate rejects every retyped value and partial group", `Quick, test_validate_complete);
  ]
