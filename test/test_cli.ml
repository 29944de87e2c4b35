(* The flag table shared by svm_run and bench (Harness.Cli): a flag stated
   at its default leaves the report byte-identical, defaults come from the
   library, and bad values are rejected at parse time. *)

let check = Alcotest.check

let parse_run = Report_cases.parse_run

let parse = Report_cases.parse

(* The bytes [svm_run ARGS --json FILE] writes, with the report's echo of
   the configuration replaced by [echo]. *)
let report ~echo (o : Harness.Cli.run) =
  let out = Harness.Cli.execute o in
  Obs.Json.to_string
    (Harness.Cli.report_json o
       { out with report = { out.report with Svm.Runtime.r_config = echo } })

let cell app proto = [ "--app"; app; "--protocol"; proto; "--nodes"; "8"; "--scale"; "test" ]

(* (argv, flags at their defaults): each feature is invisible until asked
   for. Zero chaos, fault batch 1, the oracle detector, one replica under
   either scheme, and a zero metrics interval. *)
let flag_off =
  List.map
    (fun p ->
      (cell "lu" p, [ "--drop-rate"; "0"; "--dup-rate"; "0"; "--jitter"; "0"; "--straggler"; "1" ]))
    [ "lrc"; "olrc"; "hlrc"; "ohlrc"; "aurc"; "rc" ]
  @ [ (cell "sor" "hlrc", [ "--fault-batch"; "1" ]) ]
  @ List.map (fun p -> (cell "sor" p, [ "--detector"; "oracle" ])) [ "lrc"; "hlrc" ]
  @ List.concat_map
      (fun p ->
        List.map
          (fun s -> (cell "sor" p, [ "--replicas"; "1"; "--repl-scheme"; s ]))
          [ "inval"; "backup" ])
      [ "lrc"; "olrc"; "hlrc"; "ohlrc" ]
  @ List.map (fun p -> (cell "sor" p, [ "--metrics-interval"; "0" ])) [ "lrc"; "hlrc" ]

(* The configs may differ only in [repl_scheme], which a one-replica run
   never reads but the report echoes; the rest of the report must match. *)
let test_flag_off_identity () =
  List.iter
    (fun (argv, flags) ->
      let name = String.concat " " (argv @ flags) in
      let base = parse argv and flagged = parse (argv @ flags) in
      check Alcotest.bool (name ^ ": same config") true
        ({ flagged.cfg with repl_scheme = base.cfg.repl_scheme } = base.cfg);
      check Alcotest.string name (report ~echo:base.cfg base) (report ~echo:base.cfg flagged))
    flag_off

(* LU on 4 nodes, one run per protocol: svm_run's --json document
   validates once parsed back, and without its meta block it is the
   library report whose MD5 the identity golden pins (its LU p4 lines). *)
let test_lu_reports_pinned () =
  let app = Apps.Registry.lu Apps.Registry.Test in
  List.iter
    (fun name ->
      let argv = [ "--app"; "lu"; "--protocol"; name; "--nodes"; "4"; "--scale"; "test" ] in
      let o = parse argv in
      let doc = Harness.Cli.report_json o (Harness.Cli.execute o) in
      let parsed = Obs.Json.of_string (Report_cases.pretty doc) in
      (match Result.bind parsed Svm.Report_json.validate with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e);
      let without_meta =
        match doc with
        | Obs.Json.Obj fields -> Obs.Json.Obj (List.filter (fun (k, _) -> k <> "meta") fields)
        | j -> j
      in
      let proto = Option.get (Svm.Config.protocol_of_string name) in
      let library = Svm.Runtime.run (Svm.Config.make ~nprocs:4 proto) (app.body ~verify:true) in
      check Alcotest.string name
        (Obs.Json.to_string (Svm.Report_json.encode library))
        (Obs.Json.to_string without_meta))
    Svm.Config.protocol_strings

let test_defaults_from_library () =
  let o = parse [] in
  check Alcotest.bool "no flags = Config.make defaults" true
    (o.Harness.Cli.cfg = Svm.Config.make ~nprocs:8 Svm.Config.Hlrc);
  check Alcotest.bool "verify on" true o.Harness.Cli.common.Harness.Cli.verify;
  check Alcotest.int "trace cap" Obs.Trace.default_capacity
    o.Harness.Cli.common.Harness.Cli.trace_cap

let test_bad_values_rejected () =
  List.iter
    (fun args ->
      match parse_run args with
      | Ok _ -> Alcotest.failf "accepted: %s" (String.concat " " args)
      | Error _ -> ())
    [
      [ "--app"; "kvstore"; "--kv-theta"; "1.5" ];
      [ "--app"; "kvstore"; "--kv-theta"; "nan" ];
      [ "--app"; "kvstore"; "--kv-write-ratio"; "nan" ];
      [ "--app"; "kvstore"; "--kv-rate"; "0" ];
      [ "--app"; "kvstore"; "--kv-buckets"; "0" ];
      [ "--app"; "kvstore"; "--kv-buckets"; "1048577" ];
      [ "--app"; "lu"; "--kv-ops"; "5" ];
      [ "--app"; "kvstore"; "--kv-keys"; "100000"; "--kv-buckets"; "4" ];
      [ "--drop-rate"; "2" ];
      [ "--kill"; "3" ];
      [ "--kill"; "3@" ];
      [ "--kill"; "0@0" ];
      [ "--kill"; "3@-1" ];
      [ "--kill"; "9@100" ];
      [ "--pause"; "2@5" ];
      [ "--pause"; "2@5:1" ];
      [ "--pause"; "2@5:nan" ];
      [ "--nodes"; "4"; "--partition"; "0,1,2,3@0:10" ];
      [ "--partition"; "1,1@0:10" ];
      [ "--partition"; "@0:10" ];
      [ "--kill-node"; "3" ];
      [ "--seed"; "42" ];
      [ "--replicas"; "9" ];
      [ "--migrate"; "--kill"; "3@80000" ];
      [ "--fault-batch"; "0" ];
      [ "--scale"; "huge" ];
      [ "--trace-cap" ];
      [ "--verify"; "false" ];
    ]

let suite =
  [
    ("flag-off byte identity", `Quick, test_flag_off_identity);
    ("LU reports are the golden's", `Quick, test_lu_reports_pinned);
    ("defaults come from the library", `Quick, test_defaults_from_library);
    ("bad values rejected at parse time", `Quick, test_bad_values_rejected);
  ]
