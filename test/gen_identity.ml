(* Byte-identity golden generator.

   Runs the full default-flag sweep — every protocol x every registry
   application at Test scale, at 4 and 8 nodes — and emits one line per
   cell with MD5 digests of (a) the JSON report exactly as the CLI would
   write it, (b) the JSONL trace of an observed twin run, and (c) the
   observed twin's report (which must equal (a): attaching a sink must
   never perturb the simulation).

   Dune diffs the output against test/golden/identity.txt, so any change
   to default-flag simulator behavior — event order, costs, float
   arithmetic, report encoding, trace stream — fails the suite. The
   committed golden was produced by the array-backed, binary-heap seed;
   the Bigarray/calendar-queue rewrite must reproduce it byte for byte.
   After an *intentional* behavior change, refresh with [dune promote].

   A second section pins the optional blocks the default flags never
   produce: one line per {!Report_cases} argv with the MD5 of the file
   [svm_run ARGV --json FILE] writes, [meta] included. *)

let md5 s = Digest.to_hex (Digest.string s)

(* The CLI report file is the pretty document plus a blank line
   (Obs.Export.write_json); digest the same bytes. *)
let report_bytes doc = Report_cases.pretty doc ^ "\n"

(* The JSONL trace file's bytes, gathered from the exporter's pieces. *)
let jsonl sink =
  let buf = Buffer.create 65536 in
  Obs.Export.jsonl (Buffer.add_string buf) sink;
  Buffer.contents buf

let () =
  let oc = open_out_bin "identity.txt" in
  List.iter
    (fun proto ->
      List.iter
        (fun (app : Apps.Registry.t) ->
          List.iter
            (fun nprocs ->
              let cfg = Svm.Config.make ~nprocs proto in
              let plain = Svm.Runtime.run cfg (app.body ~verify:true) in
              let sink = Obs.Trace.create_sink ~capacity:65536 () in
              let observed = Svm.Runtime.run ~sink cfg (app.body ~verify:true) in
              Printf.fprintf oc "%s %s p%d report %s trace %s observed-report %s\n"
                (String.lowercase_ascii (Svm.Config.protocol_name proto))
                app.name nprocs
                (md5 (report_bytes (Svm.Report_json.encode plain)))
                (md5 (jsonl sink))
                (md5 (report_bytes (Svm.Report_json.encode observed))))
            [ 4; 8 ])
        (List.filter_map
           (fun name -> Apps.Registry.find name Apps.Registry.Test)
           Apps.Registry.names))
    Svm.Config.extended_protocols;
  List.iter
    (fun args ->
      Printf.fprintf oc "svm_run %s json %s\n" (String.concat " " args)
        (md5 (report_bytes (Report_cases.report args))))
    Report_cases.argvs;
  close_out oc
