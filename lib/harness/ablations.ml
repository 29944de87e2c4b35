(* Ablation studies of the design choices DESIGN.md calls out.

   These go beyond the paper's tables: each isolates one mechanism the
   paper argues about in prose — home placement (§4.4), the
   latency/interrupt sensitivity of the homeless-vs-home-based gap (§4.8
   discussion), and the page-size-induced false-sharing trade-off (§1).

   Every ablation is phrased as: enumerate the runs its table needs (in row
   order), evaluate them through a {!Pool} (each run is a self-contained
   simulation), then render from the results. With the sequential pool the
   runs happen in exactly the old inline order; with a parallel pool the
   rendered bytes are identical because rendering never starts until every
   run is done. Spec keys avoid [Apps.Registry.t] values (closures break
   structural equality) — apps are keyed by name. *)

let title ppf s = Format.fprintf ppf "@.=== %s ===@.@." s

let hline ppf n = Format.fprintf ppf "%s@." (String.make n '-')

let elapsed_of cfg body =
  let r = Svm.Runtime.run cfg (body ~verify:false) in
  (r.Svm.Runtime.r_elapsed, r)

(* Evaluate [run] over [specs] on the pool and hand back an exact-match
   lookup (specs are small comparable tuples). *)
let evaluate pool specs run =
  let results = Pool.map pool (fun spec -> (spec, run spec)) specs in
  fun spec -> List.assoc spec results

let app_of scale name = Option.get (Apps.Registry.find name scale)

(* --- Home placement (paper 4.4: "if homes are chosen intelligently") --- *)

let home_placement ppf ?(pool = Pool.sequential) ~scale ~node_counts () =
  title ppf "Ablation: home placement for LU under HLRC (paper 4.4)";
  Format.fprintf ppf "%-8s %14s %14s %14s %10s@." "nodes" "owner homes(s)" "round robin(s)"
    "allocator(s)" "owner gain";
  hline ppf 68;
  let specs =
    List.concat_map
      (fun np ->
        [
          (np, true, Svm.Config.Round_robin);
          (np, false, Svm.Config.Round_robin);
          (np, false, Svm.Config.Allocator);
        ])
      node_counts
  in
  let time =
    evaluate pool specs (fun (np, owner_homes, policy) ->
        let p = { (Apps.Registry.lu_params scale) with Apps.Lu.owner_homes } in
        let cfg = Svm.Config.make ~home_policy:policy ~nprocs:np Svm.Config.Hlrc in
        fst (elapsed_of cfg (fun ~verify ctx -> Apps.Lu.body ~verify p ctx)))
  in
  List.iter
    (fun np ->
      let owner = time (np, true, Svm.Config.Round_robin) in
      let rr = time (np, false, Svm.Config.Round_robin) in
      let alloc = time (np, false, Svm.Config.Allocator) in
      Format.fprintf ppf "%-8d %14.3f %14.3f %14.3f %9.2fx@." np (owner /. 1e6) (rr /. 1e6)
        (alloc /. 1e6)
        (Float.min rr alloc /. owner))
    node_counts

(* --- Network parameters (paper 4.8: "fast interrupts and low latency
   messages... the performance gap between the home-based and the homeless
   protocols would probably be smaller") --- *)

let network_sensitivity ppf ?(pool = Pool.sequential) ~scale ~node_counts () =
  title ppf "Ablation: network sensitivity of the LRC/HLRC gap (paper 4.8 discussion)";
  Format.fprintf ppf
    "Paragon profile: 50us latency, 690us interrupt. Low-latency profile: 5us, 10us.@.@.";
  Format.fprintf ppf "%-16s %5s | %21s | %21s@." "" "nodes" "Paragon LRC/HLRC" "low-lat LRC/HLRC";
  hline ppf 75;
  let apps = [ Apps.Registry.sor scale; Apps.Registry.raytrace scale ] in
  let costs_of = function
    | `Paragon -> Machine.Costs.paragon
    | `Low_latency -> Machine.Costs.low_latency
  in
  let specs =
    List.concat_map
      (fun (app : Apps.Registry.t) ->
        List.concat_map
          (fun np ->
            List.concat_map
              (fun profile ->
                List.map
                  (fun proto -> (app.Apps.Registry.name, np, profile, proto))
                  [ Svm.Config.Lrc; Svm.Config.Hlrc ])
              [ `Paragon; `Low_latency ])
          node_counts)
      apps
  in
  let time =
    evaluate pool specs (fun (name, np, profile, proto) ->
        let cfg = Svm.Config.make ~costs:(costs_of profile) ~nprocs:np proto in
        fst (elapsed_of cfg (app_of scale name).Apps.Registry.body))
  in
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun np ->
          let gap profile =
            time (app.Apps.Registry.name, np, profile, Svm.Config.Lrc)
            /. time (app.Apps.Registry.name, np, profile, Svm.Config.Hlrc)
          in
          Format.fprintf ppf "%-16s %5d | %21.2f | %21.2f@." app.Apps.Registry.name np
            (gap `Paragon) (gap `Low_latency))
        node_counts)
    apps

(* --- Page size (coherence granularity vs false sharing) --- *)

let page_size ppf ?(pool = Pool.sequential) ~scale ~node_counts () =
  title ppf "Ablation: page size (coherence granularity) under HLRC";
  Format.fprintf ppf "%-16s %5s | %12s %12s %12s@." "" "nodes" "4KB (s)" "8KB (s)" "16KB (s)";
  hline ppf 70;
  let apps = [ Apps.Registry.sor scale; Apps.Registry.raytrace scale ] in
  let specs =
    List.concat_map
      (fun (app : Apps.Registry.t) ->
        List.concat_map
          (fun np ->
            List.map (fun pw -> (app.Apps.Registry.name, np, pw)) [ 512; 1024; 2048 ])
          node_counts)
      apps
  in
  let time =
    evaluate pool specs (fun (name, np, page_words) ->
        let cfg = Svm.Config.make ~page_words ~nprocs:np Svm.Config.Hlrc in
        fst (elapsed_of cfg (app_of scale name).Apps.Registry.body) /. 1e6)
  in
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun np ->
          let t pw = time (app.Apps.Registry.name, np, pw) in
          Format.fprintf ppf "%-16s %5d | %12.3f %12.3f %12.3f@." app.Apps.Registry.name np
            (t 512) (t 1024) (t 2048))
        node_counts)
    apps

(* --- Lock service placement (paper 4.3: "could be reduced to only 150us
   if this service were moved to the co-processor") --- *)

let coproc_locks ppf ?(pool = Pool.sequential) ~scale ~node_counts () =
  title ppf "Ablation: lock service on the co-processor under OHLRC (paper 4.3 extension)";
  Format.fprintf ppf "%-16s %5s | %14s %14s %10s@." "" "nodes" "compute (s)" "coproc (s)"
    "gain";
  hline ppf 70;
  let apps = [ Apps.Registry.water_nsq scale; Apps.Registry.raytrace scale ] in
  let specs =
    List.concat_map
      (fun (app : Apps.Registry.t) ->
        List.concat_map
          (fun np -> List.map (fun c -> (app.Apps.Registry.name, np, c)) [ false; true ])
          node_counts)
      apps
  in
  let time =
    evaluate pool specs (fun (name, np, coproc_locks) ->
        let cfg = Svm.Config.make ~coproc_locks ~nprocs:np Svm.Config.Ohlrc in
        fst (elapsed_of cfg (app_of scale name).Apps.Registry.body) /. 1e6)
  in
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun np ->
          let slow = time (app.Apps.Registry.name, np, false)
          and fast = time (app.Apps.Registry.name, np, true) in
          Format.fprintf ppf "%-16s %5d | %14.3f %14.3f %9.2fx@." app.Apps.Registry.name np
            slow fast (slow /. fast))
        node_counts)
    apps

(* --- The wider protocol family: eager RC (the predecessor LRC relaxed,
   paper 2), the paper's LRC/HLRC, and AURC (the hardware baseline HLRC
   approximates, paper 2.2-2.3 and references [15,16]) --- *)

let aurc_protocols = [ Svm.Config.Rc; Svm.Config.Lrc; Svm.Config.Hlrc; Svm.Config.Aurc ]

let aurc_comparison ppf m ~node_counts =
  let apps = Apps.Registry.all (Matrix.scale m) in
  Matrix.prefetch m
    (List.concat_map
       (fun app ->
         List.concat_map
           (fun np ->
             (app, Svm.Config.Hlrc, 1) :: List.map (fun p -> (app, p, np)) aurc_protocols)
           node_counts)
       apps);
  title ppf "Protocol family: eager RC vs LRC vs HLRC vs AURC (paper 2.2-2.3)";
  Format.fprintf ppf "%-16s %5s | %8s %8s %8s %8s | %10s %10s@." "" "nodes" "RC" "LRC" "HLRC"
    "AURC" "RC updMB" "AURC updMB";
  hline ppf 92;
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun np ->
          let speedup proto = Matrix.speedup m app proto np in
          let upd proto =
            float_of_int (Svm.Runtime.total_update_bytes (Matrix.get m app proto np))
            /. 1048576.0
          in
          Format.fprintf ppf "%-16s %5d | %8.2f %8.2f %8.2f %8.2f | %10.2f %10.2f@."
            app.Apps.Registry.name np (speedup Svm.Config.Rc) (speedup Svm.Config.Lrc)
            (speedup Svm.Config.Hlrc) (speedup Svm.Config.Aurc) (upd Svm.Config.Rc)
            (upd Svm.Config.Aurc))
        node_counts)
    apps

(* --- Adaptive home migration (extension): repairing un-hinted placement
   at run time --- *)

let home_migration ppf ?(pool = Pool.sequential) ~scale ~node_counts () =
  title ppf "Ablation: adaptive home migration under HLRC (extension)";
  Format.fprintf ppf
    "LU without placement hints (round-robin homes), with and without migration.@.@.";
  Format.fprintf ppf "%-8s %12s %14s %12s %10s@." "nodes" "fixed (s)" "migrating (s)" "moves"
    "gain";
  hline ppf 62;
  let p = { (Apps.Registry.lu_params scale) with Apps.Lu.owner_homes = false } in
  let specs = List.concat_map (fun np -> [ (np, false); (np, true) ]) node_counts in
  let report =
    evaluate pool specs (fun (np, home_migration) ->
        let cfg = Svm.Config.make ~home_migration ~nprocs:np Svm.Config.Hlrc in
        Svm.Runtime.run cfg (fun ctx -> Apps.Lu.body ~verify:false p ctx))
  in
  List.iter
    (fun np ->
      let fixed = report (np, false) and migrating = report (np, true) in
      let moves = Svm.Runtime.sum migrating (fun c -> c.Svm.Stats.home_migrations) in
      Format.fprintf ppf "%-8d %12.3f %14.3f %12d %9.2fx@." np
        (fixed.Svm.Runtime.r_elapsed /. 1e6)
        (migrating.Svm.Runtime.r_elapsed /. 1e6)
        moves
        (fixed.Svm.Runtime.r_elapsed /. migrating.Svm.Runtime.r_elapsed))
    node_counts

(* --- Batched fault handling (--fault-batch; zero-alloc/event-core PR
   extension): how much round-trip amortization buys per protocol --- *)

let fault_batch ppf ?(pool = Pool.sequential) ~scale ~node_counts () =
  title ppf "Ablation: batched fault handling under HLRC (--fault-batch)";
  Format.fprintf ppf
    "Runs of adjacent same-home invalid pages are pulled in one round trip.@.";
  Format.fprintf ppf
    "Homes are block-placed (adjacent pages share a home) so runs exist.@.@.";
  Format.fprintf ppf "%-16s %5s | %10s %10s %10s %10s | %9s %9s %10s@." "" "nodes"
    "N=1 (s)" "N=2 (s)" "N=4 (s)" "N=8 (s)" "fetch@1" "fetch@8" "prefetch@8";
  hline ppf 106;
  let batches = [ 1; 2; 4; 8 ] in
  let apps = [ Apps.Registry.raytrace scale; Apps.Registry.sor scale ] in
  let specs =
    List.concat_map
      (fun (app : Apps.Registry.t) ->
        List.concat_map
          (fun np -> List.map (fun b -> (app.Apps.Registry.name, np, b)) batches)
          node_counts)
      apps
  in
  let report =
    evaluate pool specs (fun (name, np, fault_batch) ->
        let cfg =
          Svm.Config.make ~home_policy:Svm.Config.Block ~fault_batch ~nprocs:np
            Svm.Config.Hlrc
        in
        snd (elapsed_of cfg (app_of scale name).Apps.Registry.body))
  in
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun np ->
          let t b =
            (report (app.Apps.Registry.name, np, b)).Svm.Runtime.r_elapsed /. 1e6
          in
          let sum b = Svm.Runtime.sum (report (app.Apps.Registry.name, np, b)) in
          Format.fprintf ppf "%-16s %5d | %10.3f %10.3f %10.3f %10.3f | %9d %9d %10d@."
            app.Apps.Registry.name np (t 1) (t 2) (t 4) (t 8)
            (sum 1 (fun c -> c.Svm.Stats.page_fetches))
            (sum 8 (fun c -> c.Svm.Stats.page_fetches))
            (sum 8 (fun c -> c.Svm.Stats.batch_prefetches)))
        node_counts)
    apps
