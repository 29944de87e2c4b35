(* The flag table shared by svm_run and bench (Harness.Cli): a flag stated
   at its default leaves the report byte-identical, defaults come from the
   library, and bad values are rejected at parse time. *)

let check = Alcotest.check

(* [svm_run ARGS] through the flag table: the parsed run, or the usage
   error the CLI would print. *)
let parse_run args =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let argv = Array.of_list ("svm_run" :: args) in
  match
    Cmdliner.Cmd.eval_value ~help:ppf ~err:ppf ~argv
      (Cmdliner.Cmd.v (Cmdliner.Cmd.info "svm_run") Harness.Cli.svm_run)
  with
  | Ok (`Ok o) -> Ok o
  | Ok (`Help | `Version) | Error _ ->
      Format.pp_print_flush ppf ();
      Error (Buffer.contents buf)

let parse args =
  match parse_run args with
  | Ok o -> o
  | Error e -> Alcotest.failf "%s: %s" (String.concat " " args) e

(* The bytes [svm_run ARGS --json FILE] writes, with the report's echo of
   the configuration replaced by [echo]. *)
let report ~echo (o : Harness.Cli.run) =
  let app = o.app and c = o.common in
  let r = Svm.Runtime.run o.cfg (app.Apps.Registry.body ~verify:c.Harness.Cli.verify) in
  let meta =
    {
      Svm.Report_json.rm_app = app.Apps.Registry.name;
      rm_scale = Apps.Registry.scale_name c.Harness.Cli.scale;
    }
  in
  Svm.Report_json.to_string ~meta { r with Svm.Runtime.r_config = echo }

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
      [ "--app"; "lu"; "--kv-ops"; "5" ];
      [ "--app"; "kvstore"; "--kv-keys"; "100000"; "--kv-buckets"; "4" ];
      [ "--drop-rate"; "2" ];
      [ "--kill-node"; "0" ];
      [ "--nodes"; "4"; "--partition"; "0,1,2,3" ];
      [ "--replicas"; "9" ];
      [ "--fault-batch"; "0" ];
      [ "--scale"; "huge" ];
      [ "--trace-cap" ];
      [ "--verify"; "false" ];
    ]

let suite =
  [
    ("flag-off byte identity", `Quick, test_flag_off_identity);
    ("defaults come from the library", `Quick, test_defaults_from_library);
    ("bad values rejected at parse time", `Quick, test_bad_values_rejected);
  ]
