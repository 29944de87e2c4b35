(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus Bechamel micro-benchmarks of the protocol
   primitives.

   Usage:
     dune exec bench/main.exe                -- everything, default scale
     dune exec bench/main.exe -- table2      -- one artifact
     dune exec bench/main.exe -- --scale full --nodes 8,32,64 table2
     dune exec bench/main.exe -- micro       -- Bechamel micro-benchmarks

   The artifacts and every flag are described in --help; the flags shared
   with svm_run are defined once, in Harness.Cli. *)

open Cmdliner

let known_artifacts =
  [
    "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "figure3"; "figure4";
    "sor-zero"; "aurc"; "protocols"; "ablation-homes"; "ablation-network";
    "ablation-pagesize"; "ablation-locks"; "ablation-migration"; "ablation-fault-batch";
  ]
  @ Harness.Soak.names
  @ [ "profile"; "timeline"; "kvstore-skew"; "micro"; "all" ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot protocol primitives             *)

let micro () =
  let open Bechamel in
  let page_words = 1024 in
  let twin = Mem.Words.of_array (Array.init page_words (fun i -> float_of_int i)) in
  let sparse = Mem.Words.copy twin in
  let dense = Mem.Words.copy twin in
  for i = 0 to page_words - 1 do
    if i mod 16 = 0 then Mem.Words.set sparse i (Mem.Words.get sparse i +. 1.0);
    Mem.Words.set dense i (Mem.Words.get dense i +. 1.0)
  done;
  (* One changed word mid-page: the shape of a kvstore put's diff, where
     the fill pass scans only the changed span. *)
  let one_word = Mem.Words.copy twin in
  Mem.Words.set one_word 500 0.5;
  (* The same page with that store made through [Svm.Api.write], which
     logs it: the diff compares one word with the twin. *)
  let logged =
    let sys = Svm.System.create (Svm.Config.make ~page_words ~nprocs:1 Svm.Config.Hlrc) in
    let node = sys.Svm.System.nodes.(0) in
    let e = Mem.Page_table.ensure node.Svm.System.pt 0 in
    e.Mem.Page_table.data <- Some (Mem.Words.copy twin);
    e.Mem.Page_table.prot <- Mem.Page_table.Read_write;
    Mem.Page_table.make_twin e;
    Svm.Api.write (Svm.Api.make_ctx sys node) 500 0.5;
    e
  in
  (* Every other interior word changed (511 of 1,024): the shape of a SOR
     row after one red-black half-sweep, which makes most of LRC's
     retained diffs. *)
  let stride2 = Mem.Words.copy twin in
  for i = 0 to (page_words / 2) - 2 do
    Mem.Words.set stride2 ((2 * i) + 1) 0.5
  done;
  let sparse_diff = Mem.Diff.create ~page:0 ~twin ~current:sparse in
  let one_word_diff = Mem.Diff.create ~page:0 ~twin ~current:one_word in
  let dense_diff = Mem.Diff.create ~page:0 ~twin ~current:dense in
  let target = Mem.Words.copy twin in
  (* A context on a node that holds page 0 read-write: every access below
     takes [Svm.Api]'s hit path, one charge and one page-table lookup. *)
  let hit =
    let sys = Svm.System.create (Svm.Config.make ~page_words ~nprocs:1 Svm.Config.Hlrc) in
    let node = sys.Svm.System.nodes.(0) in
    let e = Mem.Page_table.ensure node.Svm.System.pt 0 in
    ignore (Mem.Page_table.attach_copy node.Svm.System.pt e);
    e.Mem.Page_table.prot <- Mem.Page_table.Read_write;
    Svm.Api.make_ctx sys node
  in
  let vt_a = Proto.Vclock.create ~nprocs:64 in
  let vt_b = Proto.Vclock.create ~nprocs:64 in
  for i = 0 to 63 do
    Proto.Vclock.set vt_b i (i * 3)
  done;
  let tests =
    [
      Test.make ~name:"diff-create-sparse"
        (Staged.stage (fun () -> ignore (Mem.Diff.create ~page:0 ~twin ~current:sparse)));
      Test.make ~name:"diff-create-one-word"
        (Staged.stage (fun () -> ignore (Mem.Diff.create ~page:0 ~twin ~current:one_word)));
      Test.make ~name:"diff-create-logged-one-word"
        (Staged.stage (fun () -> ignore (Mem.Diff.of_entry ~check:false logged)));
      Test.make ~name:"diff-create-dense"
        (Staged.stage (fun () -> ignore (Mem.Diff.create ~page:0 ~twin ~current:dense)));
      Test.make ~name:"diff-create-stride2"
        (Staged.stage (fun () -> ignore (Mem.Diff.create ~page:0 ~twin ~current:stride2)));
      Test.make ~name:"diff-apply-sparse"
        (Staged.stage (fun () -> Mem.Diff.apply sparse_diff target));
      Test.make ~name:"diff-apply-one-word"
        (Staged.stage (fun () -> Mem.Diff.apply one_word_diff target));
      Test.make ~name:"diff-apply-dense"
        (Staged.stage (fun () -> Mem.Diff.apply dense_diff target));
      Test.make ~name:"twin-copy" (Staged.stage (fun () -> ignore (Mem.Words.copy twin)));
      Test.make ~name:"vclock-merge"
        (Staged.stage (fun () -> Proto.Vclock.merge_into vt_a vt_b));
      Test.make ~name:"vclock-leq" (Staged.stage (fun () -> ignore (Proto.Vclock.leq vt_a vt_b)));
      Test.make ~name:"api-read-hit"
        (Staged.stage (fun () -> ignore (Sys.opaque_identity (Svm.Api.read hit 500))));
      Test.make ~name:"api-write-hit" (Staged.stage (fun () -> Svm.Api.write hit 500 0.5));
      Test.make ~name:"event-queue-push-pop"
        (Staged.stage (fun () ->
             let e = Sim.Engine.create ~capacity:64 () in
             for i = 0 to 63 do
               Sim.Engine.schedule e ~at:(float_of_int ((i * 7919) mod 101)) ignore
             done;
             ignore (Sim.Engine.run e)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    Benchmark.all cfg [ instance ] test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  Format.printf "@.=== Micro-benchmarks (Bechamel) ===@.@.";
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Format.printf "%-28s %12.1f ns/op@." name est
          | _ -> Format.printf "%-28s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let main (c : Harness.Cli.common) ~nodes ~jobs artifacts =
  let ppf = Format.std_formatter in
  let sink =
    Option.map (fun _ -> Obs.Trace.create_sink ~capacity:c.trace_cap ()) c.trace_out
  in
  let pool = Harness.Pool.create ~jobs in
  let m =
    Harness.Matrix.create ~verify:c.verify ?sink ~chaos:c.chaos ~fault_batch:c.fault_batch
      ~metrics_interval:c.metrics_interval ~pool ~scale:c.scale ()
  in
  let failures = ref 0 in
  Harness.Matrix.on_progress m (fun s -> Format.eprintf "  [%s]@." s);
  let scale = c.scale and node_counts = nodes in
  let np = match nodes with n :: _ when n >= 2 -> n | _ -> 8 in
  let rec run = function
    | "table1" -> Harness.Tables.table1 ppf m
    | "table2" -> Harness.Tables.table2 ppf m ~node_counts
    | "table3" -> Harness.Tables.table3 ppf
    | "table4" -> Harness.Tables.table4 ppf m ~node_counts
    | "table5" -> Harness.Tables.table5 ppf m ~node_counts
    | "table6" -> Harness.Tables.table6 ppf m ~node_counts
    | "figure3" -> Harness.Tables.figure3 ppf m ~node_counts
    | "figure4" -> Harness.Tables.figure4 ppf m ~node_counts ~epoch:9
    | "sor-zero" -> Harness.Tables.sor_zero ppf m ~node_counts
    | "ablation-homes" -> Harness.Ablations.home_placement ppf ~pool ~scale ~node_counts ()
    | "ablation-network" -> Harness.Ablations.network_sensitivity ppf ~pool ~scale ~node_counts ()
    | "ablation-pagesize" -> Harness.Ablations.page_size ppf ~pool ~scale ~node_counts ()
    | "ablation-locks" -> Harness.Ablations.coproc_locks ppf ~pool ~scale ~node_counts ()
    | "aurc" | "protocols" -> Harness.Ablations.aurc_comparison ppf m ~node_counts
    | "ablation-migration" -> Harness.Ablations.home_migration ppf ~pool ~scale ~node_counts ()
    | "ablation-fault-batch" -> Harness.Ablations.fault_batch ppf ~pool ~scale ~node_counts ()
    | soak when List.mem soak Harness.Soak.names ->
        if not (Harness.Soak.report ppf ~pool ~scale soak) then incr failures
    | "profile" ->
        Harness.Profile.report ppf ~pool ~verify:c.verify ~chaos:c.chaos ~trace_cap:c.trace_cap
          ~scale ~node_counts ()
    | "timeline" -> Harness.Timeline.report ppf ~pool ~verify:c.verify ~scale ~np ()
    | "kvstore-skew" ->
        (* --kv-theta / --kv-write-ratio pin the corresponding sweep axis. *)
        let pin v dflt = match v with Some x -> [ x ] | None -> dflt in
        Harness.Serving.report ppf ~pool ~scale ~nprocs:np
          ~thetas:(pin c.kv.theta Harness.Serving.default_thetas)
          ~write_ratios:(pin c.kv.write_ratio Harness.Serving.default_write_ratios)
          ~params:(Harness.Cli.kvstore_params c) ()
    | "micro" -> micro ()
    | "all" ->
        List.iter run
          [
            "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "figure3";
            "figure4"; "sor-zero"; "ablation-homes"; "ablation-network";
            "ablation-pagesize"; "ablation-locks"; "aurc"; "ablation-migration"; "micro";
          ]
    | _ -> assert false (* the ARTIFACT converter admits only [known_artifacts] *)
  in
  List.iter run (if artifacts = [] then [ "all" ] else artifacts);
  Option.iter
    (fun file -> Obs.Export.write_json ~what:"report" file (Harness.Matrix.to_json m))
    c.json;
  (match (c.trace_out, sink) with
  | Some file, Some s -> Obs.Export.write_file c.trace_format file s
  | _ -> ());
  Format.pp_print_flush ppf ();
  if !failures > 0 then exit 1

let () =
  let nodes =
    Arg.(
      value
      & opt (list Harness.Cli.pos_int) [ 8; 32; 64 ]
      & info [ "nodes" ] ~docv:"LIST"
          ~doc:
            "Comma-separated node counts of the sweeps; timeline and kvstore-skew use the first \
             (if at least 2, else 8).")
  in
  let jobs =
    Arg.(
      value
      & opt Harness.Cli.pos_int (Harness.Pool.default_jobs ())
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Evaluate independent cells on $(docv) domains (default: the recommended domain \
             count - 1). Output is byte-identical to --jobs 1.")
  in
  let artifacts =
    Arg.(
      value
      & pos_all (Harness.Cli.one_of ~what:"artifact" known_artifacts) []
      & info [] ~docv:"ARTIFACT"
          ~doc:
            ("Artifacts to regenerate (default: all): " ^ String.concat " " known_artifacts ^ "."))
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "kvstore-skew sweeps the serving workload over protocol x Zipfian skew x write mix; \
         the --kv-* flags patch its workload.";
      `P
        "--metrics-interval turns on the sampled metrics recorder in every matrix cell; with \
         --json the dump then carries a per-cell timeline block (the timeline artifact derives \
         its own cadence).";
      `P
        "The chaos flags apply one plan to every simulated cell and --fault-batch applies to \
         every cell; chaos-soak and ablation-fault-batch sweep their own. The fault-schedule \
         and failure-detector knobs are svm_run's; the soak artifacts build those plans \
         internally.";
    ]
  in
  let doc = "regenerate the paper's tables and figures on the simulated SVM system" in
  let c, nodes, jobs, artifacts =
    Harness.Cli.eval (Cmd.info "bench" ~doc ~man)
      Term.(const (fun c n j a -> (c, n, j, a)) $ Harness.Cli.common $ nodes $ jobs $ artifacts)
  in
  (* An unwritable output file is one line and exit 2. *)
  try main c ~nodes ~jobs artifacts
  with Failure msg ->
    Printf.eprintf "bench: %s\n" msg;
    exit 2
