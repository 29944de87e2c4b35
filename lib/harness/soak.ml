(* Differential soundness under injected faults.

   One property behind six artifacts: faults (drops, duplicates, jitter,
   stragglers, crash-stops, pauses, partitions) may change timing and
   traffic, never the computed result. A scenario names a fault-free twin
   configuration and derives its faulted configuration(s) from the twin's
   report and trace. The runner runs both: every run must verify against
   the application's sequential reference, and every faulted run must end
   with the twin's shared-memory digest
   ({!Svm.Runtime.report.r_mem_digest}). The artifacts differ only in their
   scenario lists, their columns and a few table-wide checks. *)

let nprocs = 4

(* Node faults hit the last node; node 0 hosts the lock and barrier managers
   and cannot fail. *)
let victim = nprocs - 1

(* Eager protocols have no replica machinery (Config rejects --replicas > 1). *)
let replicable =
  List.filter (fun p -> p <> Svm.Config.Aurc && p <> Svm.Config.Rc) Svm.Config.extended_protocols

let schemes = [ Svm.Config.Inval; Svm.Config.Backup ]

(* ------------------------------------------------------------------ *)
(* Runs                                                               *)

type facts = {
  sync_tail : float;
  first_suspect : float;
  first_depose : float;
  first_rejoin : float;
  active_after : bool;
  deposes : int;
  rejoins : int;
}

let facts_of sink =
  let arrive = ref 0. and lock = ref 0. and suspect = ref infinity and depose = ref infinity in
  let rejoin = ref infinity and active = ref false and deposes = ref 0 and rejoins = ref 0 in
  Obs.Trace.iter sink (fun { Obs.Trace.time = t; node; kind } ->
      match kind with
      | Obs.Trace.Barrier_arrive _ when node = victim ->
          arrive := t;
          if t > !rejoin then active := true
      | Obs.Trace.Page_fetch _ when node = victim && t > !rejoin -> active := true
      | Obs.Trace.Lock_acquire _ | Lock_grant _ | Lock_queued _ -> lock := Float.max !lock t
      | Obs.Trace.Suspect { peer } when peer = victim -> suspect := Float.min !suspect t
      | Obs.Trace.Depose { node } ->
          incr deposes;
          if node = victim then depose := Float.min !depose t
      | Obs.Trace.Rejoin { node } ->
          incr rejoins;
          if node = victim then rejoin := Float.min !rejoin t
      | _ -> ());
  {
    sync_tail = Float.max !arrive !lock;
    first_suspect = !suspect;
    first_depose = !depose;
    first_rejoin = !rejoin;
    active_after = !active;
    deposes = !deposes;
    rejoins = !rejoins;
  }

type run = { cfg : Svm.Config.t; result : (Svm.Runtime.report * facts, string) result }

let run (app : Apps.Registry.t) cfg =
  let sink = Obs.Trace.create_sink () in
  let result =
    match Svm.Runtime.run ~sink cfg (app.Apps.Registry.body ~verify:true) with
    | r -> Ok (r, facts_of sink)
    | exception Svm.System.Deadlock _ -> Error "deadlock"
    | exception Apps.App_util.Verification_failed msg -> Error ("verification failed: " ^ msg)
  in
  { cfg; result }

type row = { app : string; label : string; twin : run; faulted : run list }

type scenario = {
  label : string;
  twin : Svm.Config.t;
  faults : Svm.Runtime.report -> facts -> Svm.Config.t list;
}

(* Scenarios of one cell that name the same twin share one run of it. *)
let run_cell (app : Apps.Registry.t) scenarios =
  let twins = ref [] in
  List.map
    (fun (s : scenario) ->
      let twin =
        match List.assoc_opt s.twin !twins with
        | Some t -> t
        | None ->
            let t = run app s.twin in
            twins := (s.twin, t) :: !twins;
            t
      in
      let faulted =
        match twin.result with Ok (r, f) -> List.map (run app) (s.faults r f) | Error _ -> []
      in
      { app = app.Apps.Registry.name; label = s.label; twin; faulted })
    scenarios

let replay_line ~scale ~app (c : Svm.Config.t) =
  let f = Printf.sprintf "%.17g" and i = string_of_int and ch = c.chaos in
  let fault = function
    | Machine.Chaos.Kill { node; at } -> [ ("kill-node", i node); ("kill-at", f at) ]
    | Pause { node; from_; until } ->
        [ ("pause", i node); ("pause-at", f from_); ("resume-at", f until) ]
    | Partition { group; from_; until } ->
        [ ("partition", String.concat "," (List.map i group)); ("partition-at", f from_);
          ("heal-at", f until) ]
  in
  let flags =
    [ ("app", String.lowercase_ascii app);
      ("protocol", String.lowercase_ascii (Svm.Config.protocol_name c.protocol));
      ("nodes", i c.nprocs);
      ("scale", Apps.Registry.scale_name scale); ("seed", i c.seed); ("replicas", i c.replicas);
      ("repl-scheme", Svm.Config.repl_scheme_name c.repl_scheme);
      ("detector", Svm.Config.detector_name c.detector);
      ("hb-interval", f c.hb_interval); ("hb-timeout", f c.hb_timeout);
      ("drop-rate", f ch.drop_rate); ("dup-rate", f ch.dup_rate); ("jitter", f ch.jitter);
      ("straggler", f ch.straggler); ("fault-seed", i ch.fault_seed);
      ("detect-delay", f ch.detect_delay) ]
    @ List.concat_map fault ch.faults
  in
  let args = List.concat_map (fun (k, v) -> [ "--" ^ k; v ]) flags in
  String.concat " " ("dune exec bin/svm_run.exe --" :: args)

(* ------------------------------------------------------------------ *)
(* Fault placement                                                    *)

(* The sync tail: after the victim's last barrier arrival and the twin's
   last lock handoff. Crash-stop loses whatever a node has not committed,
   so an earlier kill loses work no protocol without logging can recover;
   and lock managers and tokens are not replicated, so a kill before the
   last handoff strands later acquires. The offset mixes an absolute trace
   time with [r_elapsed], which is only the length of the timed window: in
   18 of the 24 inval cells at K = 2 outside kvstore the fault lands before
   the victim's last arrival after all (and still recovers). *)
let tail_time (twin : Svm.Runtime.report) f =
  f.sync_tail +. (0.5 *. (twin.r_elapsed -. f.sync_tail))

(* A mid-run window: opens at fraction [at] of the twin's elapsed time and
   lasts fraction [len] of it, but at least 3 ms (four suspicion timeouts
   at the default heartbeat period, so a heartbeat quorum forms inside it
   and refutation only follows the heal) and at most 100 ms: kvstore runs
   last 1.3-2.0 s, and a 300 ms cut there outlasts the transport's 10
   retransmissions (250 ms still heals); an abandoned link deadlocks. *)
let mid_window ~at ~len (twin : Svm.Runtime.report) =
  let from_ = at *. twin.r_elapsed in
  (from_, from_ +. Float.min 100_000. (Float.max 3000. (len *. twin.r_elapsed)))

let with_faults (twin : Svm.Config.t) ?(detector = twin.detector) ?(hb_timeout = twin.hb_timeout)
    faults =
  { twin with chaos = { Machine.Chaos.none with faults }; detector; hb_timeout }

(* A tail kill of the victim with [replicas] copies per page. *)
let tail_kill ~label proto ~replicas scheme =
  let twin = Svm.Config.make ~nprocs ~replicas ~repl_scheme:scheme proto in
  let kill r f = [ with_faults twin [ Kill { node = victim; at = tail_time r f } ] ] in
  { label; twin; faults = kill }

(* ------------------------------------------------------------------ *)
(* Columns                                                            *)

let failure (r : row) = List.find_opt (fun x -> Result.is_error x.result) (r.twin :: r.faulted)
let completed x = match x.result with Ok rf -> rf | Error e -> invalid_arg ("Soak: " ^ e)
let report x = fst (completed x)
let facts x = snd (completed x)
let digest x = (report x).r_mem_digest
let elapsed x = match x.result with Ok (r, _) -> r.r_elapsed | Error _ -> nan
let matches (r : row) = List.for_all (fun x -> Int64.equal (digest x) (digest r.twin)) r.faulted

let the_faulted r = match r.faulted with [ x ] -> x | _ -> invalid_arg "Soak: one faulted run"

let digest_col r =
  Printf.sprintf "%016Lx %s" (digest (the_faulted r))
    (if matches r then "ok" else Printf.sprintf "MISMATCH (expected %016Lx)" (digest r.twin))

let proto_col p = String.lowercase_ascii (Svm.Config.protocol_name p)

(* Nearest-rank p99 of an ascending list; 0 when it is empty. *)
let p99 stalls = Option.value ~default:0. (Svm.Stats.quantile (Array.of_list stalls) 0.99)

(* ------------------------------------------------------------------ *)
(* Tables                                                             *)

type table = {
  title : string;
  header : string;
  unit : string;
  protocols : Svm.Config.protocol list;
  apps : string list;
  scenarios : string -> Svm.Config.protocol -> scenario list;
  values : row list -> row -> string;  (** measured columns of a row whose runs all finished *)
  verdict : row list -> string list * string * bool;
      (** table-wide checks over the finished rows: extra lines, summary tail, pass *)
}

let divergences rows =
  let bad = List.filter (fun r -> not (matches r)) rows in
  ([], Printf.sprintf ", %d divergence(s)" (List.length bad), bad = [])

let table ?(unit = "cell(s)") ?(protocols = replicable) ?(apps = Apps.Registry.names)
    ?(verdict = divergences) title header scenarios values =
  { title; header; unit; protocols; apps; scenarios; values; verdict }

let chaos_soak =
  let plan =
    { Machine.Chaos.none with drop_rate = 0.02; dup_rate = 0.01; jitter = 5.0; straggler = 1.25 }
  in
  table ~protocols:Svm.Config.extended_protocols "Chaos soak: differential soundness"
    (Printf.sprintf "%-10s %-6s %5s  %8s %8s %9s  %s" "app" "proto" "seed" "drops" "rexmits"
       "slowdown" "digest")
    (fun app proto ->
      let twin = Svm.Config.make ~nprocs proto in
      List.map
        (fun fault_seed ->
          let label = Printf.sprintf "%-10s %-6s %5d" app (proto_col proto) fault_seed in
          { label; twin; faults = (fun _ _ -> [ { twin with chaos = { plan with fault_seed } } ]) })
        [ 1; 2; 3 ])
    (fun _ r ->
      let x = report (the_faulted r) in
      Printf.sprintf "  %8d %8d %8.2fx  %s"
        (Svm.Runtime.sum x (fun c -> c.msg_drops))
        (Svm.Runtime.sum x (fun c -> c.msg_retransmits))
        (x.r_elapsed /. elapsed r.twin) (digest_col r))

let kill_soak =
  table "Kill soak: failover differential soundness"
    (Printf.sprintf "%-10s %-6s %-7s %2s %10s %9s %9s  %s" "app" "proto" "scheme" "K" "kill_at"
       "failovers" "p99stall" "digest")
    (fun app proto ->
      List.map
        (fun scheme ->
          let scheme_name = Svm.Config.repl_scheme_name scheme in
          let label = Printf.sprintf "%-10s %-6s %-7s %2d" app (proto_col proto) scheme_name 2 in
          tail_kill ~label proto ~replicas:2 scheme)
        schemes)
    (fun _ r ->
      let x = the_faulted r in
      let k = report x in
      Printf.sprintf " %10.0f %9d %8.0fu  %s"
        (match Machine.Chaos.first_kill x.cfg.chaos with Some (_, at) -> at | None -> nan)
        (Svm.Runtime.sum k (fun c -> c.failovers))
        (p99 k.r_failover_stalls) (digest_col r))

(* What replication costs when nothing fails (traffic, slowdown vs K = 1)
   and what a failure costs when it happens (recovery stalls). *)
let availability =
  table "Availability cost: replication traffic and recovery stalls"
    (Printf.sprintf "%-10s %-6s %2s %-7s %9s %10s %9s %9s %10s %10s" "app" "proto" "K" "scheme"
       "repl_msgs" "repl_bytes" "overhead" "failovers" "stall_mean" "stall_p99")
    (fun app proto ->
      let label k scheme = Printf.sprintf "%-10s %-6s %2d %-7s" app (proto_col proto) k scheme in
      { label = label 1 "-"; twin = Svm.Config.make ~nprocs proto; faults = (fun _ _ -> []) }
      :: List.concat_map
           (fun replicas ->
             List.map
               (fun scheme ->
                 let label = label replicas (Svm.Config.repl_scheme_name scheme) in
                 tail_kill ~label proto ~replicas scheme)
               schemes)
           [ 2; 3 ])
    (fun rows r ->
      let base =
        List.find
          (fun b ->
            b.app = r.app && b.twin.cfg.protocol = r.twin.cfg.protocol && b.twin.cfg.replicas = 1)
          rows
      in
      let t = report r.twin and killed = List.map report r.faulted in
      let stalls = List.concat_map (fun (k : Svm.Runtime.report) -> k.r_failover_stalls) killed in
      let n = List.length stalls in
      Printf.sprintf " %9d %10d %8.3fx %9d %9.0fu %9.0fu%s"
        (Svm.Runtime.sum t (fun c -> c.repl_updates + c.repl_invals))
        (Svm.Runtime.sum t (fun c -> c.repl_bytes))
        (t.r_elapsed /. elapsed base.twin)
        (List.fold_left (fun acc k -> acc + Svm.Runtime.sum k (fun c -> c.failovers)) 0 killed)
        (if n = 0 then 0. else List.fold_left ( +. ) 0. stalls /. float_of_int n)
        (p99 stalls)
        (if matches r then "" else "  DIGEST MISMATCH"))

(* A partition that heals before the run ends may stall progress and, under
   the heartbeat detector, falsely depose the minority side, but never
   change the result. [Oracle] exercises pure retransmission healing,
   [Heartbeat] the whole suspicion -> depose -> failover -> refute ->
   rejoin cycle. *)
let partition_soak =
  let group_name g = String.concat "," (List.map string_of_int g) in
  let impossible r =
    let x = the_faulted r in
    let suspected = Svm.Runtime.sum (report x) (fun c -> c.suspicions) in
    let deposed = (facts x).deposes in
    let cut = match Machine.Chaos.partitions x.cfg.chaos with (g, _, _) :: _ -> g | [] -> [] in
    (* Over the whole table, since whether a given cell deposes depends on
       timing: an oracle never suspects, and an even split never deposes. *)
    if
      (x.cfg.detector = Svm.Config.Oracle && (deposed > 0 || suspected > 0))
      || (2 * List.length cut >= nprocs && deposed > 0)
    then
      Some
        (Printf.sprintf "IMPOSSIBLE: %s/%s cut=%s %s deposed %d suspected %d" r.app
           (Svm.Config.protocol_name x.cfg.protocol)
           (group_name cut)
           (Svm.Config.detector_name x.cfg.detector)
           deposed suspected)
    else None
  in
  table "Partition soak: healed partitions never change results"
    (Printf.sprintf "%-10s %-6s %-6s %-9s %8s %7s %7s %7s %7s  %s" "app" "proto" "cut" "detector"
       "suspects" "refutes" "deposes" "rejoins" "fenced" "digest")
    (fun app proto ->
      let twin = Svm.Config.make ~nprocs ~replicas:2 proto in
      (* A lone minority node (the heartbeat quorum deposes it) and an even
         split (no side has a strict majority, so nobody may be deposed). *)
      List.concat_map
        (fun group ->
          List.map
            (fun detector ->
              let label =
                Printf.sprintf "%-10s %-6s %-6s %-9s" app (proto_col proto) (group_name group)
                  (Svm.Config.detector_name detector)
              in
              let cut r _ =
                let from_, until = mid_window ~at:0.35 ~len:0.2 r in
                [ with_faults ~detector twin [ Partition { group; from_; until } ] ]
              in
              { label; twin; faults = cut })
            [ Svm.Config.Oracle; Svm.Config.Heartbeat ])
        [ [ victim ]; List.init (nprocs / 2) (fun i -> victim - i) ])
    (fun _ r ->
      let x = the_faulted r in
      let k = report x in
      Printf.sprintf " %8d %7d %7d %7d %7d  %s"
        (Svm.Runtime.sum k (fun c -> c.suspicions))
        (Svm.Runtime.sum k (fun c -> c.refutations))
        (facts x).deposes (facts x).rejoins
        (Svm.Runtime.sum k (fun c -> c.fenced_fetches))
        (digest_col r))
    ~verdict:(fun rows ->
      let impossible = List.filter_map impossible rows in
      let _, divergent, ok = divergences rows in
      ( impossible,
        Printf.sprintf "%s, %d impossible detector outcome(s)" divergent (List.length impossible),
        ok && impossible = [] ))

(* Pause the victim past the suspicion timeout so the quorum wrongly
   deposes it (a gray failure: it is alive), let it resume, and require the
   twin's digest (no split brain, no lost update) with the victim deposed,
   rejoined and demonstrably active after the heal. *)
let suspicion_soak =
  let rehabilitated r =
    let f = facts (the_faulted r) in
    Float.is_finite f.first_depose && Float.is_finite f.first_rejoin && f.active_after
  in
  table "False-suspicion soak: wrongly deposed nodes rejoin without split brain"
    (Printf.sprintf "%-10s %-6s %-7s %8s %8s %7s %10s  %s" "app" "proto" "scheme" "deposed"
       "rejoined" "active" "detect_us" "digest")
    (fun app proto ->
      List.map
        (fun scheme ->
          let twin = Svm.Config.make ~nprocs ~replicas:2 ~repl_scheme:scheme proto in
          let label =
            Printf.sprintf "%-10s %-6s %-7s" app (proto_col proto)
              (Svm.Config.repl_scheme_name scheme)
          in
          let pause r _ =
            let from_, until = mid_window ~at:0.4 ~len:0. r in
            [ with_faults ~detector:Heartbeat twin [ Pause { node = victim; from_; until } ] ]
          in
          { label; twin; faults = pause })
        schemes)
    (fun _ r ->
      let x = the_faulted r in
      let f = facts x in
      let paused_at =
        match Machine.Chaos.first_pause x.cfg.chaos with Some (_, at, _) -> at | None -> nan
      in
      Printf.sprintf " %8b %8b %7b %10.0f  %s" (Float.is_finite f.first_depose)
        (Float.is_finite f.first_rejoin) f.active_after
        (if Float.is_finite f.first_suspect then f.first_suspect -. paused_at else nan)
        (digest_col r))
    ~verdict:(fun rows ->
      let bad = List.filter (fun r -> not (matches r && rehabilitated r)) rows in
      ([], Printf.sprintf ", %d failing" (List.length bad), bad = []))

(* The failure-detector trade-off on LU: a short suspicion timeout detects
   a real kill quickly but wrongly deposes a node that is merely paused; a
   long one never errs but leaves the cluster blocked on a dead home for
   longer. Each row injects both, at the same sync-tail instant. *)
let detector proto =
  let pause_us = 2000. in
  let deposed_at r i = (facts (List.nth r.faulted i)).first_depose in
  let detect_us r =
    match Machine.Chaos.first_kill (List.hd r.faulted).cfg.chaos with
    | Some (_, at) when Float.is_finite (deposed_at r 0) -> deposed_at r 0 -. at
    | _ -> infinity
  in
  let false_depose r = Float.is_finite (deposed_at r 1) in
  (* Latency must not decrease with the timeout, and once a timeout is too
     long for the pause to trigger, every longer one is quiet too. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        detect_us a <= detect_us b && (false_depose a || not (false_depose b)) && monotone rest
    | _ -> true
  in
  table ~unit:"timeout(s)" ~protocols:[ proto ] ~apps:[ "lu" ]
    (Printf.sprintf "Detector characterization (%s): detection latency vs false failover"
       (Svm.Config.protocol_name proto))
    (Printf.sprintf "%10s %12s %13s %10s  %s" "timeout_us" "detect_us" "false_depose" "pause_us"
       "digests")
    (fun _ proto ->
      let twin = Svm.Config.make ~nprocs ~replicas:2 proto in
      List.map
        (fun hb_timeout ->
          let both r f =
            let at = tail_time r f in
            List.map
              (fun fault -> with_faults ~detector:Heartbeat ~hb_timeout twin [ fault ])
              [
                Kill { node = victim; at };
                Pause { node = victim; from_ = at; until = at +. pause_us };
              ]
          in
          { label = Printf.sprintf "%10.0f" hb_timeout; twin; faults = both })
        [ 400.; 800.; 1600.; 3200.; 6400. ])
    (fun _ r ->
      Printf.sprintf " %12.0f %13b %10.0f  %s" (detect_us r) (false_depose r) pause_us
        (if matches r then "ok" else "MISMATCH"))
    ~verdict:(fun rows ->
      let ok = monotone rows in
      let tail = if ok then "" else ", NON-MONOTONE detection latency" in
      ([], tail, ok && List.for_all matches rows))

let artifacts =
  [
    ("chaos-soak", [ chaos_soak ]);
    ("kill-soak", [ kill_soak ]);
    ("availability", [ availability ]);
    ("partition-soak", [ partition_soak ]);
    ("suspicion-soak", [ suspicion_soak ]);
    (* Homeless and home-based: the trade-off must hold on both families. *)
    ("detector", [ detector Svm.Config.Hlrc; detector Svm.Config.Lrc ]);
  ]

let names = List.map fst artifacts

(* ------------------------------------------------------------------ *)
(* Runner and printer                                                 *)

(* One pool task per (protocol x application) cell, enumerated in the
   sequential nesting order, so the rows are identical at any pool width. *)
let sweep ~pool ~scale t =
  let cells =
    List.concat_map
      (fun proto ->
        List.filter_map
          (fun name -> Option.map (fun a -> (proto, a)) (Apps.Registry.find name scale))
          t.apps)
      t.protocols
  in
  Pool.map pool
    (fun (proto, (app : Apps.Registry.t)) -> run_cell app (t.scenarios app.name proto))
    cells
  |> List.concat

let print ppf ~scale t rows =
  Format.fprintf ppf "@.=== %s ===@.@.%s@." t.title t.header;
  List.iter
    (fun r ->
      match failure r with
      | None -> Format.fprintf ppf "%s%s@." r.label (t.values rows r)
      | Some x ->
          Format.fprintf ppf "%s  FAILED (%s)@.  replay: %s@." r.label
            (match x.result with Error e -> e | Ok _ -> "")
            (replay_line ~scale ~app:r.app x.cfg))
    rows;
  let finished = List.filter (fun r -> Option.is_none (failure r)) rows in
  let failed = List.length rows - List.length finished in
  let lines, tail, ok = t.verdict finished in
  List.iter (Format.fprintf ppf "%s@.") lines;
  Format.fprintf ppf "@.%d %s%s%s@." (List.length rows) t.unit tail
    (if failed = 0 then "" else Printf.sprintf ", %d failed run(s) (replay lines above)" failed);
  ok && failed = 0

let report ppf ?(pool = Pool.sequential) ?(scale = Apps.Registry.Test) name =
  match List.assoc_opt name artifacts with
  | None -> invalid_arg (Printf.sprintf "Soak.report: unknown artifact %S" name)
  | Some tables ->
      List.fold_left (fun ok t -> print ppf ~scale t (sweep ~pool ~scale t) && ok) true tables
