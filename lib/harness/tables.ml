(* Reproductions of the paper's tables and figures (text renderings).

   Each function regenerates one artifact from the run matrix: the same
   workloads, protocols and machine sizes, printing the same rows/series the
   paper reports. Absolute numbers come from the simulated Paragon cost
   model; the shapes are what is compared against the paper (see
   EXPERIMENTS.md). *)

let protocols = Svm.Config.all_protocols

let apps m = Apps.Registry.all (Matrix.scale m)

(* Every renderer evaluates the cells it reads through [Matrix.prefetch]
   before it prints, so a failing cell stops the artifact before its title.
   The order of each grid's cells is the order of its runs in the merged
   trace. The one-node HLRC cell is the sequential baseline
   [Matrix.seq_time] reads. *)
let seq_cell app = (app, Svm.Config.Hlrc, 1)

(* The (application, nodes) rows of an LRC-vs-HLRC table, application-major,
   each with its LRC and HLRC reports. *)
let lrc_hlrc_rows m apps ~node_counts =
  let rows = List.concat_map (fun app -> List.map (fun np -> (app, np)) node_counts) apps in
  Matrix.prefetch m
    (List.concat_map
       (fun (app, np) -> [ (app, Svm.Config.Lrc, np); (app, Svm.Config.Hlrc, np) ])
       rows);
  List.map
    (fun (app, np) ->
      (app, np, Matrix.get m app Svm.Config.Lrc np, Matrix.get m app Svm.Config.Hlrc np))
    rows

(* [8; 32; 64] reads "8, 32 and 64". *)
let rec and_list = function
  | [] -> ""
  | [ n ] -> string_of_int n
  | [ n; last ] -> Printf.sprintf "%d and %d" n last
  | n :: rest -> Printf.sprintf "%d, %s" n (and_list rest)

let hline ppf n = Format.fprintf ppf "%s@." (String.make n '-')

let title ppf s =
  Format.fprintf ppf "@.=== %s ===@.@." s

(* ------------------------------------------------------------------ *)

(* Table 1: applications, problem sizes, sequential execution times. *)
let table1 ppf m =
  Matrix.prefetch m (List.map seq_cell (apps m));
  title ppf "Table 1: benchmarks, problem sizes, sequential execution times (simulated)";
  Format.fprintf ppf "%-16s %-46s %14s@." "Application" "Problem size" "Seq time (s)";
  hline ppf 78;
  List.iter
    (fun (app : Apps.Registry.t) ->
      let seq = Matrix.seq_time m app in
      Format.fprintf ppf "%-16s %-46s %14.2f@." app.Apps.Registry.name
        app.Apps.Registry.description (seq /. 1e6))
    (apps m)

(* Table 2: speedups for the four protocols at each machine size. *)
let table2 ppf m ~node_counts =
  Matrix.prefetch m
    (List.concat_map
       (fun np ->
         List.concat_map
           (fun app -> seq_cell app :: List.map (fun p -> (app, p, np)) protocols)
           (apps m))
       node_counts);
  title ppf (Printf.sprintf "Table 2: speedups on %s nodes" (and_list node_counts));
  Format.fprintf ppf "%-16s" "";
  List.iter (fun p -> Format.fprintf ppf "%7s" (Svm.Config.protocol_name p)) protocols;
  Format.fprintf ppf "@.";
  List.iter
    (fun np ->
      Format.fprintf ppf "--- %d nodes@." np;
      List.iter
        (fun (app : Apps.Registry.t) ->
          Format.fprintf ppf "%-16s" app.Apps.Registry.name;
          List.iter
            (fun proto -> Format.fprintf ppf "%7.2f" (Matrix.speedup m app proto np))
            protocols;
          Format.fprintf ppf "@.")
        (apps m))
    node_counts

(* Table 3: basic operation costs plus the paper's derived 4.3 arithmetic. *)
let table3 ppf =
  title ppf "Table 3: timings for basic operations (simulated Paragon)";
  Machine.Costs.pp ppf Machine.Costs.paragon;
  let c = Machine.Costs.paragon in
  let lat = c.Machine.Costs.message_latency in
  let page = c.Machine.Costs.byte_transfer *. 8192.0 in
  let intr = c.Machine.Costs.receive_interrupt in
  let fault = c.Machine.Costs.page_fault in
  Format.fprintf ppf "@.Derived minimum costs (paper 4.3):@.";
  Format.fprintf ppf "  HLRC page miss          %8.0f us@." (fault +. lat +. intr +. page +. lat);
  Format.fprintf ppf "  OHLRC page miss         %8.0f us@." (fault +. lat +. page +. lat);
  Format.fprintf ppf "  LRC page miss (1w diff) %8.0f us@." (fault +. lat +. intr +. lat +. lat);
  Format.fprintf ppf "  OLRC page miss (1w diff)%8.0f us@." (fault +. lat +. lat +. lat);
  Format.fprintf ppf "  Remote lock acquire     %8.0f us@."
    ((3. *. lat) +. (2. *. intr) +. (2. *. c.Machine.Costs.page_invalidate))

(* Table 4: average per-node operation counts, LRC vs HLRC. *)
let table4 ppf m ~node_counts =
  let rows = lrc_hlrc_rows m (apps m) ~node_counts in
  title ppf "Table 4: average number of operations per node (LRC vs HLRC)";
  Format.fprintf ppf "%-16s %5s | %9s %9s | %9s %9s | %9s %9s | %7s %8s@." "" "nodes"
    "rdmiss" "rdmiss" "diffs+" "diffs+" "applied" "applied" "lockacq" "barriers";
  Format.fprintf ppf "%-16s %5s | %9s %9s | %9s %9s | %9s %9s | %7s %8s@." "" "" "LRC" "HLRC"
    "LRC" "HLRC" "LRC" "HLRC" "" "";
  hline ppf 110;
  List.iter
    (fun ((app : Apps.Registry.t), np, lrc, hlrc) ->
      let f r g = Matrix.mean_counter r g in
      Format.fprintf ppf "%-16s %5d | %9.0f %9.0f | %9.0f %9.0f | %9.0f %9.0f | %7.0f %8.0f@."
        app.Apps.Registry.name np
        (f lrc (fun c -> c.Svm.Stats.read_misses))
        (f hlrc (fun c -> c.Svm.Stats.read_misses))
        (f lrc (fun c -> c.Svm.Stats.diffs_created))
        (f hlrc (fun c -> c.Svm.Stats.diffs_created))
        (f lrc (fun c -> c.Svm.Stats.diffs_applied))
        (f hlrc (fun c -> c.Svm.Stats.diffs_applied))
        (f lrc (fun c -> c.Svm.Stats.lock_acquires))
        (f lrc (fun c -> c.Svm.Stats.barriers)))
    rows

(* Table 5: communication traffic, LRC vs HLRC. *)
let table5 ppf m ~node_counts =
  let rows = lrc_hlrc_rows m (apps m) ~node_counts in
  title ppf "Table 5: communication traffic (totals; LRC vs HLRC)";
  Format.fprintf ppf "%-16s %5s | %9s %9s | %10s %10s | %10s %10s@." "" "nodes" "msgs" "msgs"
    "upd MB" "upd MB" "proto MB" "proto MB";
  Format.fprintf ppf "%-16s %5s | %9s %9s | %10s %10s | %10s %10s@." "" "" "LRC" "HLRC" "LRC"
    "HLRC" "LRC" "HLRC";
  hline ppf 100;
  let mb x = float_of_int x /. 1048576.0 in
  List.iter
    (fun ((app : Apps.Registry.t), np, lrc, hlrc) ->
      Format.fprintf ppf "%-16s %5d | %9d %9d | %10.2f %10.2f | %10.2f %10.2f@."
        app.Apps.Registry.name np
        (Svm.Runtime.total_messages lrc)
        (Svm.Runtime.total_messages hlrc)
        (mb (Svm.Runtime.total_update_bytes lrc))
        (mb (Svm.Runtime.total_update_bytes hlrc))
        (mb (Svm.Runtime.total_protocol_bytes lrc))
        (mb (Svm.Runtime.total_protocol_bytes hlrc)))
    rows

(* Table 6: memory requirements, LRC vs HLRC. *)
let table6 ppf m ~node_counts =
  let rows = lrc_hlrc_rows m (apps m) ~node_counts in
  title ppf "Table 6: protocol memory (peak per node) vs application memory";
  Format.fprintf ppf "%-16s %5s | %10s | %12s %8s | %12s %8s@." "" "nodes" "app KB"
    "LRC peak KB" "ratio" "HLRC peak KB" "ratio";
  hline ppf 90;
  let kb x = float_of_int x /. 1024.0 in
  List.iter
    (fun ((app : Apps.Registry.t), np, lrc, hlrc) ->
      let app_bytes = lrc.Svm.Runtime.r_shared_bytes in
      let lp = Svm.Runtime.max_mem_peak lrc and hp = Svm.Runtime.max_mem_peak hlrc in
      Format.fprintf ppf "%-16s %5d | %10.0f | %12.0f %7.1f%% | %12.0f %7.1f%%@."
        app.Apps.Registry.name np (kb app_bytes) (kb lp)
        (100.0 *. float_of_int lp /. float_of_int (max 1 app_bytes))
        (kb hp)
        (100.0 *. float_of_int hp /. float_of_int (max 1 app_bytes)))
    rows

(* ------------------------------------------------------------------ *)

let mean_breakdown (r : Svm.Runtime.report) =
  let acc = Svm.Stats.breakdown_zero () in
  Array.iter
    (fun n ->
      let b = n.Svm.Runtime.nr_breakdown in
      acc.Svm.Stats.compute <- acc.Svm.Stats.compute +. b.Svm.Stats.compute;
      acc.Svm.Stats.data <- acc.Svm.Stats.data +. b.Svm.Stats.data;
      acc.Svm.Stats.lock <- acc.Svm.Stats.lock +. b.Svm.Stats.lock;
      acc.Svm.Stats.barrier <- acc.Svm.Stats.barrier +. b.Svm.Stats.barrier;
      acc.Svm.Stats.protocol <- acc.Svm.Stats.protocol +. b.Svm.Stats.protocol;
      acc.Svm.Stats.gc <- acc.Svm.Stats.gc +. b.Svm.Stats.gc)
    r.Svm.Runtime.r_nodes;
  let n = float_of_int (Array.length r.Svm.Runtime.r_nodes) in
  acc.Svm.Stats.compute <- acc.Svm.Stats.compute /. n;
  acc.Svm.Stats.data <- acc.Svm.Stats.data /. n;
  acc.Svm.Stats.lock <- acc.Svm.Stats.lock /. n;
  acc.Svm.Stats.barrier <- acc.Svm.Stats.barrier /. n;
  acc.Svm.Stats.protocol <- acc.Svm.Stats.protocol /. n;
  acc.Svm.Stats.gc <- acc.Svm.Stats.gc /. n;
  acc

let bar ppf label total (b : Svm.Stats.breakdown) =
  let pct x = if total <= 0. then 0. else 100. *. x /. total in
  Format.fprintf ppf
    "  %-7s %9.0f us | comp %5.1f%%  data %5.1f%%  lock %5.1f%%  barr %5.1f%%  proto %5.1f%%  gc %5.1f%%@."
    label total (pct b.Svm.Stats.compute) (pct b.Svm.Stats.data) (pct b.Svm.Stats.lock)
    (pct b.Svm.Stats.barrier) (pct b.Svm.Stats.protocol) (pct b.Svm.Stats.gc)

(* Figure 3: average execution-time breakdowns per protocol and size. *)
let figure3 ppf m ~node_counts =
  Matrix.prefetch m
    (List.concat_map
       (fun app ->
         List.concat_map (fun np -> List.map (fun p -> (app, p, np)) protocols) node_counts)
       (apps m));
  title ppf "Figure 3: time breakdowns (mean per node)";
  List.iter
    (fun (app : Apps.Registry.t) ->
      Format.fprintf ppf "%s@." app.Apps.Registry.name;
      List.iter
        (fun np ->
          Format.fprintf ppf " %d nodes:@." np;
          List.iter
            (fun proto ->
              let r = Matrix.get m app proto np in
              let b = mean_breakdown r in
              bar ppf (Svm.Config.protocol_name proto) (Svm.Stats.breakdown_total b) b)
            protocols)
        node_counts;
      Format.fprintf ppf "@.")
    (apps m)

(* Figure 4: per-processor breakdowns for one barrier epoch of
   Water-Nsquared under LRC and HLRC. The paper uses the epoch between
   barriers 9 and 10; when the scaled-down run has fewer epochs we pick the
   dominant one (largest summed time over nodes — the force-merge phase,
   which is what the paper's epoch shows). *)
let figure4 ppf m ~node_counts ~epoch =
  let app = Apps.Registry.water_nsq (Matrix.scale m) in
  let cells =
    List.concat_map
      (fun proto -> List.map (fun np -> (app, proto, np)) node_counts)
      [ Svm.Config.Lrc; Svm.Config.Hlrc ]
  in
  Matrix.prefetch m cells;
  title ppf "Figure 4: Water-Nsquared per-processor breakdowns for one barrier epoch";
  List.iter
    (fun (app, proto, np) ->
      let r = Matrix.get m app proto np in
      let nepochs =
        Array.fold_left
          (fun acc n -> min acc (List.length n.Svm.Runtime.nr_epochs))
          max_int r.Svm.Runtime.r_nodes
      in
      let epoch_weight e =
        Array.fold_left
          (fun acc n ->
            match List.nth_opt n.Svm.Runtime.nr_epochs e with
            | Some b -> acc +. Svm.Stats.breakdown_total b
            | None -> acc)
          0. r.Svm.Runtime.r_nodes
      in
      let e =
        if epoch < nepochs then epoch
        else
          let best = ref 0 in
          for cand = 1 to nepochs - 1 do
            if epoch_weight cand > epoch_weight !best then best := cand
          done;
          !best
      in
      Format.fprintf ppf "%s, %d nodes (epoch %d of %d):@."
        (Svm.Config.protocol_name proto) np e nepochs;
      Array.iter
        (fun n ->
          match List.nth_opt n.Svm.Runtime.nr_epochs e with
          | Some b ->
              bar ppf
                (Printf.sprintf "cpu %d" n.Svm.Runtime.nr_id)
                (Svm.Stats.breakdown_total b) b
          | None -> ())
        r.Svm.Runtime.r_nodes;
      Format.fprintf ppf "@.")
    cells

(* Section 4.8: SOR with zero interior, the workload most favourable to
   LRC; the paper still measures HLRC ~10% ahead. *)
let sor_zero ppf m ~node_counts =
  let rows = lrc_hlrc_rows m [ Apps.Registry.sor_zero (Matrix.scale m) ] ~node_counts in
  title ppf "Section 4.8: SOR with zero interior (LRC-favourable ablation)";
  Format.fprintf ppf "%-8s %12s %12s %10s@." "nodes" "LRC (s)" "HLRC (s)" "LRC/HLRC";
  hline ppf 48;
  List.iter
    (fun (_, np, lrc, hlrc) ->
      let lrc = lrc.Svm.Runtime.r_elapsed and hlrc = hlrc.Svm.Runtime.r_elapsed in
      Format.fprintf ppf "%-8d %12.3f %12.3f %10.2f@." np (lrc /. 1e6) (hlrc /. 1e6)
        (lrc /. hlrc))
    rows
