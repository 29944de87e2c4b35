(* Critical-path profiler: the backward walk must partition the run's
   end-to-end time exactly (local + data + lock + barrier + gc = path
   length), stay within what the per-node Stats breakdowns measured, and
   be deterministic — for every protocol x application pair. *)

let check = Alcotest.check
let nprocs = 4

let profiled_run app proto =
  let cfg = Svm.Config.make ~nprocs ~trace_spans:true proto in
  let sink = Obs.Trace.create_sink () in
  let r = Svm.Runtime.run ~sink cfg (app.Apps.Registry.body ~verify:false) in
  (r, sink)

let each_cell f =
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun proto ->
          let label =
            Printf.sprintf "%s/%s" app.Apps.Registry.name (Svm.Config.protocol_name proto)
          in
          f label app proto)
        Svm.Config.all_protocols)
    (Apps.Registry.all Apps.Registry.Test)

let sum_nodes r field =
  Array.fold_left
    (fun acc n -> acc +. field n.Svm.Runtime.nr_breakdown)
    0. r.Svm.Runtime.r_nodes

(* One profiled run per cell, all per-cell invariants checked in a single
   pass so the matrix stays cheap. *)
let test_per_cell_invariants () =
  each_cell (fun label app proto ->
      let r, sink = profiled_run app proto in
      check Alcotest.bool (label ^ ": sink did not overflow") true
        (Obs.Trace.dropped sink = 0);
      let cp = Obs.Critical_path.analyze sink in
      let open Obs.Critical_path in
      (* The walk partitions [0, cp_finish] exactly: every on-path
         microsecond lands in exactly one bucket. *)
      let total = cp.cp_local +. cp.cp_data +. cp.cp_lock +. cp.cp_barrier +. cp.cp_gc in
      let tol = 1e-6 *. Float.max 1. cp.cp_finish in
      if Float.abs (total -. cp.cp_finish) > tol then
        Alcotest.failf "%s: buckets sum to %.6f but the path length is %.6f" label total
          cp.cp_finish;
      check Alcotest.bool (label ^ ": path length positive") true (cp.cp_finish > 0.);
      (* The path is one chain through the run, so its per-bucket wait can
         never exceed what all nodes together spent in that bucket.  A wait
         span also covers request servicing done while blocked, which Stats
         credits to [protocol] instead, so the node-summed bound includes
         that slack. *)
      let slack = sum_nodes r (fun b -> b.Svm.Stats.protocol) +. tol in
      List.iter
        (fun (name, on_path, summed) ->
          if on_path > summed +. slack then
            Alcotest.failf "%s: on-path %s %.3f exceeds node-summed %.3f (+%.3f slack)" label
              name on_path summed slack)
        [
          ("data", cp.cp_data, sum_nodes r (fun b -> b.Svm.Stats.data));
          ("lock", cp.cp_lock, sum_nodes r (fun b -> b.Svm.Stats.lock));
          ("barrier", cp.cp_barrier, sum_nodes r (fun b -> b.Svm.Stats.barrier));
          ("gc", cp.cp_gc, sum_nodes r (fun b -> b.Svm.Stats.gc));
        ];
      (* Blame tables: sorted by wait (descending) and bounded by their
         bucket; epochs carry non-negative spread and a real straggler. *)
      let table name bucket rbs =
        let rec sorted = function
          | a :: (b :: _ as rest) -> a.rb_wait >= b.rb_wait && sorted rest
          | _ -> true
        in
        check Alcotest.bool (label ^ ": " ^ name ^ " sorted") true (sorted rbs);
        let attributed = List.fold_left (fun acc rb -> acc +. rb.rb_wait) 0. rbs in
        check Alcotest.bool (label ^ ": " ^ name ^ " within bucket") true
          (attributed <= bucket +. tol)
      in
      table "top pages" cp.cp_data cp.cp_top_pages;
      table "top locks" cp.cp_lock cp.cp_top_locks;
      List.iter
        (fun es ->
          check Alcotest.bool (label ^ ": epoch spread non-negative") true (es.es_spread >= 0.);
          check Alcotest.bool (label ^ ": straggler is a node") true
            (es.es_straggler >= 0 && es.es_straggler < nprocs))
        cp.cp_epochs;
      check Alcotest.bool (label ^ ": end node is a node") true
        (cp.cp_end_node >= 0 && cp.cp_end_node < nprocs))

(* Same seed, same analysis: the JSON section must be byte-identical
   across runs (the CI profile job asserts this end-to-end). *)
let test_analysis_deterministic () =
  let app = Apps.Registry.water_nsq Apps.Registry.Test in
  List.iter
    (fun proto ->
      let encode () =
        let _, sink = profiled_run app proto in
        Obs.Json.to_string (Obs.Critical_path.to_json (Obs.Critical_path.analyze sink))
      in
      check Alcotest.string
        (Printf.sprintf "water/%s analysis is deterministic" (Svm.Config.protocol_name proto))
        (encode ()) (encode ()))
    [ Svm.Config.Lrc; Svm.Config.Hlrc ]

(* Rendering smoke: the blame table and JSON section exist and carry the
   headline number. *)
let test_render_and_json () =
  let app = Apps.Registry.sor Apps.Registry.Test in
  let _, sink = profiled_run app Svm.Config.Hlrc in
  let cp = Obs.Critical_path.analyze sink in
  let rendered = Obs.Critical_path.render cp in
  check Alcotest.bool "render mentions the critical path" true
    (String.length rendered > 0);
  let j = Obs.Critical_path.to_json cp in
  (match Option.bind (Obs.Json.member "finish_us" j) Obs.Json.to_float with
  | Some f -> check (Alcotest.float 1e-6) "json finish" cp.Obs.Critical_path.cp_finish f
  | None -> Alcotest.fail "no finish_us in the JSON section");
  match Option.bind (Obs.Json.member "buckets" j) (Obs.Json.member "local") with
  | Some _ -> ()
  | None -> Alcotest.fail "no buckets.local in the JSON section"

(* An empty sink (no spans recorded) must not crash the analyzer. *)
let test_empty_sink () =
  let sink = Obs.Trace.create_sink ~capacity:16 () in
  let cp = Obs.Critical_path.analyze sink in
  check (Alcotest.float 0.) "empty trace: zero-length path" 0.
    cp.Obs.Critical_path.cp_finish

let suite =
  [
    ("per-cell invariants (every protocol x app)", `Quick, test_per_cell_invariants);
    ("analysis is deterministic", `Quick, test_analysis_deterministic);
    ("render and json sections", `Quick, test_render_and_json);
    ("empty sink", `Quick, test_empty_sink);
  ]
