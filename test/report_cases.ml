(* svm_run argvs whose reports, taken together, carry every conditional
   field and block of the report JSON: the fault-batch, replication,
   chaos, kill, pause, partition and detector groups (one schedule with
   two pauses and two partitions), the serving totals,
   stall percentiles both present and absent, empty and non-empty
   histograms, the timeline, trace (with and without dropped_by_kind) and
   critical-path sections, and meta. The last two move homes at barriers
   (LU migrates two homes on 8 HLRC nodes, one on 4 AURC nodes, tearing
   down its write-through mappings). Each runs at --scale test. *)

let argvs =
  List.map
    (fun line -> String.split_on_char ' ' line @ [ "--scale"; "test" ])
    [
      "--app lu --protocol hlrc --nodes 4";
      "--app lu --protocol hlrc --nodes 4 --fault-batch 4";
      "--app sor --protocol lrc --nodes 4 --replicas 2 --repl-scheme inval";
      "--app sor --protocol ohlrc --nodes 4 --replicas 2 --repl-scheme backup";
      "--app lu --protocol hlrc --nodes 4 --drop-rate 0.05 --dup-rate 0.02 --jitter 5 \
       --straggler 1.5 --fault-seed 3";
      "--app sor --protocol hlrc --nodes 4 --replicas 2 --repl-scheme backup --kill 3@1000 \
       --no-verify";
      "--app sor --protocol hlrc --nodes 4 --replicas 2 --repl-scheme inval --kill 3@100000000 \
       --no-verify";
      "--app sor --protocol hlrc --nodes 4 --pause 2@1000:5000";
      "--app kvstore --protocol hlrc --nodes 4 --replicas 2 --partition 2,3@1000:5000 --detector \
       heartbeat";
      "--app kvstore --protocol ohlrc --nodes 4 --replicas 2 --repl-scheme inval --detector \
       heartbeat --pause 3@2000:60000";
      "--app kvstore --protocol hlrc --nodes 8 --replicas 2 --detector heartbeat --pause \
       5@300000:310000 --pause 4@900000:905000 --partition 6,7@600000:650000 --partition \
       3@1100000:1130000";
      "--app kvstore --protocol hlrc --nodes 4";
      "--app sor --protocol hlrc --nodes 4 --metrics";
      "--app kvstore --protocol lrc --nodes 4 --metrics-interval 500 --drop-rate 0.01";
      "--app water-nsquared --protocol lrc --nodes 4 --profile";
      "--app lu --protocol hlrc --nodes 4 --profile --trace-cap 100";
      "--app lu --protocol hlrc --nodes 4 --trace-out /dev/null --trace-cap 50";
      "--app kvstore --protocol hlrc --nodes 4 --replicas 2 --repl-scheme inval --metrics";
      "--app sor --protocol hlrc --nodes 4 --replicas 2 --repl-scheme backup --kill 3@1000 \
       --no-verify --metrics";
      "--app lu --protocol hlrc --nodes 8 --migrate";
      "--app lu --protocol aurc --nodes 4 --migrate";
    ]

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
  | Error e -> failwith (String.concat " " args ^ ": " ^ e)

(* [doc]'s pretty serialization: the bytes [svm_run --json FILE] writes,
   less the final blank line. *)
let pretty doc =
  let buf = Buffer.create 4096 in
  Obs.Json.write ~pretty:true (Buffer.add_string buf) doc;
  Buffer.contents buf

(* The document [svm_run ARGS --json FILE] writes. *)
let report args =
  let o = parse args in
  Harness.Cli.report_json o (Harness.Cli.execute o)
