(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus Bechamel micro-benchmarks of the protocol
   primitives.

   Usage:
     dune exec bench/main.exe                -- everything, default scale
     dune exec bench/main.exe -- table2      -- one artifact
     dune exec bench/main.exe -- --scale full --nodes 8,32,64 table2
     dune exec bench/main.exe -- micro       -- Bechamel micro-benchmarks

   Artifacts: table1 table2 table3 table4 table5 table6 figure3 figure4
   sor-zero aurc ablation-homes ablation-network ablation-pagesize
   ablation-locks ablation-migration ablation-fault-batch chaos-soak
   kill-soak availability partition-soak suspicion-soak detector profile
   timeline kvstore-skew perf micro all

   kvstore-skew sweeps the serving workload over protocol x Zipfian skew x
   write mix; the --kv-* flags patch its workload parameters (--kv-theta /
   --kv-write-ratio narrow the respective sweep axis to that one value).
   Every flag that takes a value rejects a missing or malformed one at
   parse time, before any cell is simulated. (The failure-detector and
   partition knobs from the availability work were never bench flags —
   they live on svm_run only; the soak artifacts build those plans
   internally.)

   --metrics-interval US turns on the sampled metrics recorder in every
   matrix cell; with --json the dump then carries a per-cell timeline
   block (the timeline artifact derives its own cadence and ignores it).

   Fault injection: --drop-rate, --dup-rate, --jitter, --straggler and
   --fault-seed apply one chaos plan to every simulated cell (chaos-soak
   ignores them and sweeps its own plans). --fault-batch N enables batched
   fault handling on every cell (ablation-fault-batch sweeps it itself).

   perf runs the fixed microbenchmark cells (events/sec, minor words per
   event, wall clock) and --perf-out FILE writes them as JSON for the CI
   perf gate.

   Parallelism: --jobs N evaluates independent cells on N domains
   (default: recommended_domain_count - 1). Output is byte-identical to
   --jobs 1. *)

let default_nodes = [ 8; 32; 64 ]

let known_artifacts =
  [
    "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "figure3"; "figure4";
    "sor-zero"; "aurc"; "protocols"; "ablation-homes"; "ablation-network";
    "ablation-pagesize"; "ablation-locks"; "ablation-migration"; "ablation-fault-batch"; "chaos-soak";
    "kill-soak"; "availability"; "partition-soak"; "suspicion-soak"; "detector";
    "profile"; "timeline"; "kvstore-skew"; "perf"; "micro"; "all";
  ]

type options = {
  mutable scale : Apps.Registry.scale;
  mutable nodes : int list;
  mutable verify : bool;
  mutable artifacts : string list;
  mutable json_out : string option;
  mutable trace_out : string option;
  mutable trace_format : Obs.Export.format;
  mutable trace_cap : int;
  mutable chaos : Machine.Chaos.params;
  mutable jobs : int;
  mutable fault_batch : int;
  mutable perf_out : string option;
  mutable metrics_interval : float;
  (* kvstore workload overrides ([None] keeps the scale default); theta and
     write-ratio also narrow the kvstore-skew sweep axes to that value. *)
  mutable kv_ops : int option;
  mutable kv_rate : float option;
  mutable kv_keys : int option;
  mutable kv_theta : float option;
  mutable kv_write_ratio : float option;
  mutable kv_txn_ratio : float option;
  mutable kv_buckets : int option;
}

let parse_args () =
  let o =
    {
      scale = Apps.Registry.Bench;
      nodes = default_nodes;
      verify = true;
      artifacts = [];
      json_out = None;
      trace_out = None;
      trace_format = Obs.Export.Jsonl;
      trace_cap = 1_000_000;
      chaos = Machine.Chaos.none;
      jobs = Harness.Pool.default_jobs ();
      fault_batch = 1;
      perf_out = None;
      metrics_interval = 0.;
      kv_ops = None;
      kv_rate = None;
      kv_keys = None;
      kv_theta = None;
      kv_write_ratio = None;
      kv_txn_ratio = None;
      kv_buckets = None;
    }
  in
  let rate name s =
    match float_of_string_opt s with
    | Some x -> x
    | None -> failwith (Printf.sprintf "%s: expected a number, got %S" name s)
  in
  let missing flag = failwith (Printf.sprintf "%s: missing value" flag) in
  let pos_int flag s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | Some n -> failwith (Printf.sprintf "%s: must be at least 1, got %d" flag n)
    | None -> failwith (Printf.sprintf "%s: expected an integer, got %S" flag s)
  in
  let pos_float flag s =
    match float_of_string_opt s with
    | Some x when x > 0. -> x
    | Some x -> failwith (Printf.sprintf "%s: must be positive, got %g" flag x)
    | None -> failwith (Printf.sprintf "%s: expected a number, got %S" flag s)
  in
  let fraction flag s =
    match float_of_string_opt s with
    | Some x when x >= 0. && x <= 1. -> x
    | Some x -> failwith (Printf.sprintf "%s: must be in [0,1], got %g" flag x)
    | None -> failwith (Printf.sprintf "%s: expected a number, got %S" flag s)
  in
  let rec go = function
    | [] -> ()
    | [ (( "--scale" | "--nodes" | "--drop-rate" | "--dup-rate" | "--jitter"
         | "--straggler" | "--fault-seed" | "--json" | "--trace-out" | "--trace-format"
         | "--trace-cap" | "--jobs" | "--fault-batch" | "--perf-out"
         | "--metrics-interval" | "--kv-ops" | "--kv-rate" | "--kv-keys" | "--kv-theta"
         | "--kv-write-ratio" | "--kv-txn-ratio" | "--kv-buckets" ) as flag) ] ->
        missing flag
    | "--scale" :: s :: rest ->
        (o.scale <-
          (match String.lowercase_ascii s with
          | "test" -> Apps.Registry.Test
          | "bench" -> Apps.Registry.Bench
          | "full" -> Apps.Registry.Full
          | other -> failwith (Printf.sprintf "unknown scale %S" other)));
        go rest
    | "--nodes" :: s :: rest ->
        o.nodes <-
          List.map
            (fun part ->
              match int_of_string_opt part with
              | Some n when n > 0 -> n
              | Some n -> failwith (Printf.sprintf "--nodes: node count must be positive, got %d" n)
              | None -> failwith (Printf.sprintf "--nodes: expected an integer, got %S" part))
            (String.split_on_char ',' s);
        go rest
    | "--drop-rate" :: s :: rest ->
        o.chaos <- { o.chaos with Machine.Chaos.drop_rate = rate "--drop-rate" s };
        go rest
    | "--dup-rate" :: s :: rest ->
        o.chaos <- { o.chaos with Machine.Chaos.dup_rate = rate "--dup-rate" s };
        go rest
    | "--jitter" :: s :: rest ->
        o.chaos <- { o.chaos with Machine.Chaos.jitter = rate "--jitter" s };
        go rest
    | "--straggler" :: s :: rest ->
        o.chaos <- { o.chaos with Machine.Chaos.straggler = rate "--straggler" s };
        go rest
    | "--fault-seed" :: s :: rest ->
        (o.chaos <-
          {
            o.chaos with
            Machine.Chaos.fault_seed =
              (match int_of_string_opt s with
              | Some n -> n
              | None -> failwith (Printf.sprintf "--fault-seed: expected an integer, got %S" s));
          });
        go rest
    | "--no-verify" :: rest ->
        o.verify <- false;
        go rest
    | "--json" :: file :: rest ->
        o.json_out <- Some file;
        go rest
    | "--trace-out" :: file :: rest ->
        o.trace_out <- Some file;
        go rest
    | "--trace-format" :: s :: rest ->
        (o.trace_format <-
          (match Obs.Export.format_of_string s with
          | Some fmt -> fmt
          | None -> failwith (Printf.sprintf "unknown trace format %S (jsonl|chrome)" s)));
        go rest
    | "--trace-cap" :: s :: rest ->
        (o.trace_cap <-
          (match int_of_string_opt s with
          | Some n when n > 0 -> n
          | Some n -> failwith (Printf.sprintf "--trace-cap: must be positive, got %d" n)
          | None -> failwith (Printf.sprintf "--trace-cap: expected an integer, got %S" s)));
        go rest
    | "--fault-batch" :: s :: rest ->
        (o.fault_batch <-
          (match int_of_string_opt s with
          | Some n when n >= 1 -> n
          | Some n -> failwith (Printf.sprintf "--fault-batch: must be at least 1, got %d" n)
          | None -> failwith (Printf.sprintf "--fault-batch: expected an integer, got %S" s)));
        go rest
    | "--perf-out" :: file :: rest ->
        o.perf_out <- Some file;
        go rest
    | "--metrics-interval" :: s :: rest ->
        (o.metrics_interval <-
          (match float_of_string_opt s with
          | Some x when x >= 0. -> x
          | Some x -> failwith (Printf.sprintf "--metrics-interval: must be >= 0, got %g" x)
          | None -> failwith (Printf.sprintf "--metrics-interval: expected a number, got %S" s)));
        go rest
    | "--kv-ops" :: s :: rest ->
        o.kv_ops <- Some (pos_int "--kv-ops" s);
        go rest
    | "--kv-rate" :: s :: rest ->
        o.kv_rate <- Some (pos_float "--kv-rate" s);
        go rest
    | "--kv-keys" :: s :: rest ->
        o.kv_keys <- Some (pos_int "--kv-keys" s);
        go rest
    | "--kv-theta" :: s :: rest ->
        (o.kv_theta <-
          (match float_of_string_opt s with
          | Some x when x >= 0. && x < 1. -> Some x
          | Some x -> failwith (Printf.sprintf "--kv-theta: must be in [0,1), got %g" x)
          | None -> failwith (Printf.sprintf "--kv-theta: expected a number, got %S" s)));
        go rest
    | "--kv-write-ratio" :: s :: rest ->
        o.kv_write_ratio <- Some (fraction "--kv-write-ratio" s);
        go rest
    | "--kv-txn-ratio" :: s :: rest ->
        o.kv_txn_ratio <- Some (fraction "--kv-txn-ratio" s);
        go rest
    | "--kv-buckets" :: s :: rest ->
        o.kv_buckets <- Some (pos_int "--kv-buckets" s);
        go rest
    | "--jobs" :: s :: rest ->
        (o.jobs <-
          (match int_of_string_opt s with
          | Some n when n > 0 -> n
          | Some n -> failwith (Printf.sprintf "--jobs: must be positive, got %d" n)
          | None -> failwith (Printf.sprintf "--jobs: expected an integer, got %S" s)));
        go rest
    | flag :: _ when String.length flag >= 2 && String.sub flag 0 2 = "--" ->
        failwith (Printf.sprintf "unknown option %S" flag)
    | arg :: rest ->
        let artifact = String.lowercase_ascii arg in
        if not (List.mem artifact known_artifacts) then
          failwith
            (Printf.sprintf "unknown artifact %S (expected one of: %s)" arg
               (String.concat " " known_artifacts));
        o.artifacts <- o.artifacts @ [ artifact ];
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  (match Machine.Chaos.validate o.chaos with
  | Ok () -> ()
  | Error msg -> failwith msg);
  if o.artifacts = [] then o.artifacts <- [ "all" ];
  o

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
  let sparse_diff = Mem.Diff.create ~page:0 ~twin ~current:sparse in
  let dense_diff = Mem.Diff.create ~page:0 ~twin ~current:dense in
  let target = Mem.Words.copy twin in
  let vt_a = Proto.Vclock.create ~nprocs:64 in
  let vt_b = Proto.Vclock.create ~nprocs:64 in
  for i = 0 to 63 do
    Proto.Vclock.set vt_b i (i * 3)
  done;
  let tests =
    [
      Test.make ~name:"diff-create-sparse"
        (Staged.stage (fun () -> ignore (Mem.Diff.create ~page:0 ~twin ~current:sparse)));
      Test.make ~name:"diff-create-dense"
        (Staged.stage (fun () -> ignore (Mem.Diff.create ~page:0 ~twin ~current:dense)));
      Test.make ~name:"diff-apply-sparse"
        (Staged.stage (fun () -> Mem.Diff.apply sparse_diff target));
      Test.make ~name:"diff-apply-dense"
        (Staged.stage (fun () -> Mem.Diff.apply dense_diff target));
      Test.make ~name:"twin-copy" (Staged.stage (fun () -> ignore (Mem.Words.copy twin)));
      Test.make ~name:"vclock-merge"
        (Staged.stage (fun () -> Proto.Vclock.merge_into vt_a vt_b));
      Test.make ~name:"vclock-leq" (Staged.stage (fun () -> ignore (Proto.Vclock.leq vt_a vt_b)));
      Test.make ~name:"event-queue-push-pop"
        (Staged.stage (fun () ->
             let h = Sim.Heap.create ~capacity:64 () in
             for i = 0 to 63 do
               Sim.Heap.push h ~key:(float_of_int ((i * 7919) mod 101)) i
             done;
             while not (Sim.Heap.is_empty h) do
               ignore (Sim.Heap.pop_min h)
             done));
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
          | Some [ est ] -> Format.printf "%-24s %12.1f ns/op@." name est
          | _ -> Format.printf "%-24s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)

(* Machine-readable dump of every simulated cell (one per matrix entry). *)
let dump_json file m =
  let rm_scale = Apps.Registry.scale_name (Harness.Matrix.scale m) in
  let cell (app, proto, np, r) =
    let meta = { Svm.Report_json.rm_app = app; rm_scale } in
    Obs.Json.Obj
      [
        ("app", Obs.Json.String app);
        ( "protocol",
          Obs.Json.String (String.lowercase_ascii (Svm.Config.protocol_name proto)) );
        ("nodes", Obs.Json.Int np);
        ("report", Svm.Report_json.encode ~meta r);
      ]
  in
  let doc =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int Svm.Report_json.schema_version);
        ("cells", Obs.Json.List (List.map cell (Harness.Matrix.cells m)));
      ]
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string_pretty doc);
      output_char oc '\n')

let () =
  let o =
    try parse_args () with
    | Failure msg | Invalid_argument msg ->
        Printf.eprintf "bench: %s\n" msg;
        exit 2
  in
  let ppf = Format.std_formatter in
  let sink =
    match o.trace_out with
    | None -> None
    | Some _ -> Some (Obs.Trace.create_sink ~capacity:o.trace_cap ())
  in
  let m =
    Harness.Matrix.create ~verify:o.verify ?sink ~chaos:o.chaos
      ~fault_batch:o.fault_batch ~metrics_interval:o.metrics_interval ~scale:o.scale ()
  in
  let pool = Harness.Pool.create ~jobs:o.jobs in
  let failures = ref 0 in
  Harness.Matrix.on_progress m (fun s -> Format.eprintf "  [%s]@." s);
  (* With --jobs 1 the prefetch is skipped entirely and every cell is
     simulated inline by its renderer, exactly as before; with a wider pool
     the renderer's cells are evaluated on the pool first (in first-use
     order, so progress lines and trace events keep the sequential order)
     and the renderer then reads them from the memo cache. *)
  let prefetch cells = if Harness.Pool.jobs pool > 1 then Harness.Matrix.prefetch m pool cells in
  let rec run = function
    | "table1" ->
        prefetch (Harness.Tables.table1_cells m);
        Harness.Tables.table1 ppf m
    | "table2" ->
        prefetch (Harness.Tables.table2_cells m ~node_counts:o.nodes);
        Harness.Tables.table2 ppf m ~node_counts:o.nodes
    | "table3" -> Harness.Tables.table3 ppf
    | "table4" ->
        prefetch (Harness.Tables.table4_cells m ~node_counts:o.nodes);
        Harness.Tables.table4 ppf m ~node_counts:o.nodes
    | "table5" ->
        prefetch (Harness.Tables.table5_cells m ~node_counts:o.nodes);
        Harness.Tables.table5 ppf m ~node_counts:o.nodes
    | "table6" ->
        prefetch (Harness.Tables.table6_cells m ~node_counts:o.nodes);
        Harness.Tables.table6 ppf m ~node_counts:o.nodes
    | "figure3" ->
        prefetch (Harness.Tables.figure3_cells m ~node_counts:o.nodes);
        Harness.Tables.figure3 ppf m ~node_counts:o.nodes
    | "figure4" ->
        prefetch (Harness.Tables.figure4_cells m ~node_counts:o.nodes);
        Harness.Tables.figure4 ppf m ~node_counts:o.nodes ~epoch:9
    | "sor-zero" ->
        prefetch (Harness.Tables.sor_zero_cells m ~node_counts:o.nodes);
        Harness.Tables.sor_zero ppf m ~node_counts:o.nodes
    | "ablation-homes" ->
        Harness.Ablations.home_placement ppf ~pool ~scale:o.scale ~node_counts:o.nodes ()
    | "ablation-network" ->
        Harness.Ablations.network_sensitivity ppf ~pool ~scale:o.scale ~node_counts:o.nodes ()
    | "ablation-pagesize" ->
        Harness.Ablations.page_size ppf ~pool ~scale:o.scale ~node_counts:o.nodes ()
    | "ablation-locks" ->
        Harness.Ablations.coproc_locks ppf ~pool ~scale:o.scale ~node_counts:o.nodes ()
    | "aurc" | "protocols" ->
        prefetch (Harness.Ablations.aurc_cells m ~node_counts:o.nodes);
        Harness.Ablations.aurc_comparison ppf m ~node_counts:o.nodes
    | "ablation-migration" ->
        Harness.Ablations.home_migration ppf ~pool ~scale:o.scale ~node_counts:o.nodes ()
    | "ablation-fault-batch" ->
        Harness.Ablations.fault_batch ppf ~pool ~scale:o.scale ~node_counts:o.nodes ()
    | "perf" ->
        let results = Harness.Perf.run_all () in
        Harness.Perf.pp_table ppf results;
        (match o.perf_out with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc (Obs.Json.to_string_pretty (Harness.Perf.to_json results));
                output_char oc '\n'))
    | soak when List.mem soak Harness.Soak.names ->
        if not (Harness.Soak.report ppf ~pool ~scale:o.scale soak) then incr failures
    | "profile" ->
        Harness.Profile.report ppf ~pool ~verify:o.verify ~chaos:o.chaos
          ~trace_cap:o.trace_cap ~scale:o.scale ~node_counts:o.nodes ()
    | "timeline" ->
        let np = match o.nodes with n :: _ when n >= 2 -> n | _ -> 8 in
        Harness.Timeline.report ppf ~pool ~verify:o.verify ~scale:o.scale ~np ()
    | "kvstore-skew" ->
        let np = match o.nodes with n :: _ when n >= 2 -> n | _ -> 8 in
        let base = Apps.Registry.kvstore_params o.scale in
        let ov v dflt = Option.value v ~default:dflt in
        let tp = base.Apps.Kvstore.traffic in
        let params =
          {
            base with
            Apps.Kvstore.buckets = ov o.kv_buckets base.Apps.Kvstore.buckets;
            traffic =
              {
                tp with
                Traffic.ops = ov o.kv_ops tp.Traffic.ops;
                rate = ov o.kv_rate tp.Traffic.rate;
                keys = ov o.kv_keys tp.Traffic.keys;
                txn_ratio = ov o.kv_txn_ratio tp.Traffic.txn_ratio;
              };
          }
        in
        (* --kv-theta / --kv-write-ratio pin the corresponding sweep axis. *)
        let thetas =
          match o.kv_theta with Some t -> [ t ] | None -> Harness.Serving.default_thetas
        in
        let write_ratios =
          match o.kv_write_ratio with
          | Some w -> [ w ]
          | None -> Harness.Serving.default_write_ratios
        in
        Harness.Serving.report ppf ~pool ~scale:o.scale ~nprocs:np ~thetas ~write_ratios
          ~params ()
    | "micro" -> micro ()
    | "all" ->
        List.iter run
          [
            "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "figure3";
            "figure4"; "sor-zero"; "ablation-homes"; "ablation-network";
            "ablation-pagesize"; "ablation-locks"; "aurc"; "ablation-migration"; "micro";
          ]
    | other -> failwith (Printf.sprintf "unknown artifact %S" other)
  in
  List.iter run o.artifacts;
  (match o.json_out with None -> () | Some file -> dump_json file m);
  (match (o.trace_out, sink) with
  | Some file, Some s -> Obs.Export.write_file o.trace_format file s
  | _ -> ());
  Format.pp_print_flush ppf ();
  if !failures > 0 then exit 1
