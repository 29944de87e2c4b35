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
  check Alcotest.bool "pretty round-trips" true (round (Obs.Json.to_string_pretty doc) = doc)

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
  check Alcotest.string "byte-identical JSON reports" (Svm.Report_json.to_string r1)
    (Svm.Report_json.to_string r2)

let test_trace_covers_protocol_activity () =
  let _, s = traced_run () in
  let names = List.map (fun e -> Obs.Trace.kind_name e.Obs.Trace.kind) (Obs.Trace.events s) in
  List.iter
    (fun expected ->
      check Alcotest.bool (expected ^ " present") true (List.mem expected names))
    [ "page_fetch"; "diff_create"; "diff_flush"; "barrier_arrive"; "barrier_release";
      "interval_end"; "msg_send"; "msg_recv" ]

(* ------------------------------------------------------------------ *)
(* Exporters *)

let test_jsonl_roundtrip () =
  let _, sink = traced_run () in
  let lines = String.split_on_char '\n' (String.trim (Obs.Export.jsonl sink)) in
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
    match Obs.Json.of_string (Obs.Export.chrome ~name:"lu/hlrc" sink) with
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
  let doc = Obs.Export.jsonl sink in
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
    match List.rev (String.split_on_char '\n' (String.trim (Obs.Export.jsonl sink))) with
    | last :: _ -> last
    | [] -> Alcotest.fail "empty jsonl"
  in
  check Alcotest.bool "jsonl ends with the dropped record" true
    (contains tail "\"ev\":\"dropped\"");
  check Alcotest.bool "chrome reports droppedEvents" true
    (contains (Obs.Export.chrome sink) "\"droppedEvents\":")

let test_write_file_reports_errors () =
  let sink = Obs.Trace.create_sink ~capacity:4 () in
  match Obs.Export.write_file Obs.Export.Jsonl "/nonexistent-dir-xyz/trace.jsonl" sink with
  | () -> Alcotest.fail "writing into a missing directory succeeded"
  | exception Failure msg ->
      check Alcotest.bool "one-line error names the problem" true
        (contains msg "cannot write trace file")

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

let test_legacy_render_exact_strings () =
  let cases =
    [
      (Obs.Trace.Page_fetch { page = 3; home = 1 }, Some "page fault: fetch page 3 from home 1");
      (Obs.Trace.Gc_done, Some "gc: discarded diffs and interval records");
      ( Obs.Trace.Lock_grant { lock = 2; dst = 5; intervals = 4 },
        Some "grant lock 2 to node 5 (4 interval records)" );
      (Obs.Trace.Barrier_release { epoch = 7; gc = true }, Some "barrier 7 completes (gc)");
      (Obs.Trace.Barrier_release { epoch = 7; gc = false }, Some "barrier 7 completes");
      (Obs.Trace.Msg_send { dst = 1; bytes = 64; update = 0 }, None);
      (Obs.Trace.Diff_create { page = 0; words = 8; bytes = 100 }, None);
    ]
  in
  List.iter
    (fun (kind, expected) ->
      check Alcotest.bool (Obs.Trace.kind_name kind) true
        (Obs.Trace.render kind = expected))
    cases;
  check
    Alcotest.(option string)
    "legacy line prefixes the node" (Some "[node 2] gc: discarded diffs and interval records")
    (Obs.Trace.legacy_line { Obs.Trace.time = 1.; node = 2; kind = Obs.Trace.Gc_done })

(* ------------------------------------------------------------------ *)
(* Report JSON schema *)

let test_report_validates () =
  let r, _ = traced_run () in
  let j =
    match Obs.Json.of_string (Svm.Report_json.to_string r) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  (match Svm.Report_json.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid report rejected: %s" e);
  match Svm.Report_json.headline j with
  | None -> Alcotest.fail "no headline counters"
  | Some h ->
      check
        Alcotest.(list string)
        "headline keys"
        [ "elapsed_us"; "messages"; "update_bytes"; "protocol_bytes"; "mem_peak" ]
        (List.map fst h)

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
  let plain = Svm.Report_json.to_string r in
  check Alcotest.bool "no trace section by default" false (contains plain "\"trace\":");
  check Alcotest.bool "no critical_path section by default" false
    (contains plain "\"critical_path\":");
  let cp = Obs.Critical_path.analyze sink in
  let full = Svm.Report_json.to_string ~critical_path:cp ~trace:sink r in
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

let suite =
  [
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json determinism", `Quick, test_json_determinism);
    ("json rejects malformed input", `Quick, test_json_rejects_malformed);
    ("sink is bounded", `Quick, test_sink_bounded);
    ("trace is deterministic across same-seed runs", `Quick, test_trace_deterministic);
    ("trace covers the protocol activity", `Quick, test_trace_covers_protocol_activity);
    ("jsonl export round-trips", `Quick, test_jsonl_roundtrip);
    ("chrome export is well-formed", `Quick, test_chrome_wellformed);
    ("chrome causal layer (spans and counters)", `Quick, test_chrome_causal_layer);
    ("default trace has no causal kinds", `Quick, test_default_trace_has_no_causal_kinds);
    ("exporters record sink overflow", `Quick, test_export_overflow_records);
    ("write_file reports errors cleanly", `Quick, test_write_file_reports_errors);
    ("report sections are opt-in and validate", `Quick, test_report_optional_sections);
    ("legacy adapter matches the typed stream", `Quick, test_legacy_adapter_matches_typed_stream);
    ("legacy render produces the exact old strings", `Quick, test_legacy_render_exact_strings);
    ("report JSON validates", `Quick, test_report_validates);
    ("validate rejects malformed reports", `Quick, test_validate_rejects_malformed);
  ]
