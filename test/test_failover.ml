(* Replicated homes and node-kill failover.

   The scenario the machinery exists for: a page's home is crash-stopped
   while another node is inside a critical section updating that very
   page. With a replica degree >= 2 the failure detector promotes the next
   live rank, the writer's retained diffs are pulled into the rebuilt
   master, and a later reader (synchronizing through the same lock) must
   see the update — and the final shared-memory digest must equal the
   fault-free twin's.

   Also here: replication without faults never changes results (K = 2
   digest equals K = 1 digest), and chaos without a kill never triggers a
   spurious failover. The [--replicas 1] byte-identity guarantee is
   enforced separately by the gen_identity golden (test/golden/
   identity.txt), which runs every default-flag cell. *)

let check = Alcotest.check

let expect cond fmt =
  Format.kasprintf (fun msg -> if not cond then Alcotest.fail msg) fmt

let replicable = [ Svm.Config.Lrc; Svm.Config.Olrc; Svm.Config.Hlrc; Svm.Config.Ohlrc ]

let schemes = [ Svm.Config.Inval; Svm.Config.Backup ]

let cell_name proto scheme =
  Printf.sprintf "%s/%s"
    (String.lowercase_ascii (Svm.Config.protocol_name proto))
    (Svm.Config.repl_scheme_name scheme)

(* 4 processes; both shared pages are pinned to node 3, the victim.

   Phase 1: everyone (victim included) writes its slot of page 0 under
   lock 0. Phase 2: the victim runs straight to the final barrier; node 1
   updates page 1 inside a long critical section (the kill lands here);
   node 2 then takes the same lock and must read node 1's value through
   the failed-over home. *)
let victim = 3

let kill_app ~checks ctx =
  let me = Svm.Api.pid ctx in
  let pw = Svm.Api.page_words ctx in
  if me = 0 then ignore (Svm.Api.malloc ctx ~name:"a" ~home:(fun _ -> victim) (2 * pw));
  Svm.Api.barrier ctx;
  let a = Svm.Api.root ctx "a" in
  Svm.Api.lock ctx 0;
  Svm.Api.write ctx (a + me) (float_of_int (me + 1));
  Svm.Api.unlock ctx 0;
  Svm.Api.barrier ctx;
  if me = 1 then begin
    Svm.Api.lock ctx 1;
    Svm.Api.compute ctx 3000.;
    Svm.Api.write ctx (a + pw) 42.;
    Svm.Api.unlock ctx 1
  end;
  if me = 2 then begin
    Svm.Api.compute ctx 4500.;
    Svm.Api.lock ctx 1;
    let v = Svm.Api.read ctx (a + pw) in
    if checks then expect (v = 42.) "pid 2: read %g through failed-over home, want 42" v;
    Svm.Api.unlock ctx 1
  end;
  Svm.Api.barrier ctx

(* The victim's last barrier arrival in the fault-free twin: killing after
   it loses only the victim's cached copies, never committed history. *)
let last_arrival sink =
  let last = ref 0. in
  Obs.Trace.iter sink (fun ev ->
      if ev.Obs.Trace.node = victim then
        match ev.Obs.Trace.kind with
        | Obs.Trace.Barrier_arrive _ -> last := ev.Obs.Trace.time
        | _ -> ());
  !last

let sum_counter (r : Svm.Runtime.report) f =
  Array.fold_left (fun acc n -> acc + f n.Svm.Runtime.nr_counters) 0 r.Svm.Runtime.r_nodes

let test_kill_home_mid_critical_section () =
  List.iter
    (fun proto ->
      List.iter
        (fun scheme ->
          let name = cell_name proto scheme in
          let cfg =
            Svm.Config.make ~paranoid:true ~nprocs:4 ~replicas:2 ~repl_scheme:scheme proto
          in
          let sink = Obs.Trace.create_sink () in
          let clean = Svm.Runtime.run ~sink cfg (kill_app ~checks:true) in
          let kill_at = last_arrival sink +. 50. in
          expect
            (kill_at < clean.Svm.Runtime.r_elapsed)
            "%s: kill point %.0f must precede the fault-free end %.0f" name kill_at
            clean.Svm.Runtime.r_elapsed;
          let chaos =
            {
              Machine.Chaos.none with
              Machine.Chaos.faults = [ Machine.Chaos.Kill { node = victim; at = kill_at } ];
            }
          in
          let cfg =
            Svm.Config.make ~paranoid:true ~nprocs:4 ~replicas:2 ~repl_scheme:scheme ~chaos
              proto
          in
          let killed = Svm.Runtime.run cfg (kill_app ~checks:true) in
          check Alcotest.bool
            (name ^ ": killed-run digest equals the fault-free twin's")
            true
            (Int64.equal killed.Svm.Runtime.r_mem_digest clean.Svm.Runtime.r_mem_digest);
          if proto = Svm.Config.Hlrc || proto = Svm.Config.Ohlrc then
            expect
              (sum_counter killed (fun c -> c.Svm.Stats.failovers) >= 1)
              "%s: the victim's homed pages must have failed over" name)
        schemes)
    replicable

(* Replication is pure redundancy: without faults, any degree and either
   scheme must compute exactly what the unreplicated run computes. *)
let test_replication_preserves_results () =
  List.iter
    (fun proto ->
      let base =
        Svm.Runtime.run (Svm.Config.make ~nprocs:4 proto) (kill_app ~checks:true)
      in
      List.iter
        (fun scheme ->
          List.iter
            (fun replicas ->
              let cfg = Svm.Config.make ~nprocs:4 ~replicas ~repl_scheme:scheme proto in
              let r = Svm.Runtime.run cfg (kill_app ~checks:true) in
              check Alcotest.bool
                (Printf.sprintf "%s K=%d digest unchanged" (cell_name proto scheme)
                   replicas)
                true
                (Int64.equal r.Svm.Runtime.r_mem_digest base.Svm.Runtime.r_mem_digest))
            [ 2; 3 ])
        schemes)
    replicable

(* Stragglers and jitter slow nodes down but kill nobody: the failure
   detector must not fire, and no replica promotion may happen. *)
let test_no_spurious_failover () =
  let chaos =
    { Machine.Chaos.none with Machine.Chaos.jitter = 20.0; straggler = 1.5; fault_seed = 7 }
  in
  List.iter
    (fun proto ->
      let cfg = Svm.Config.make ~nprocs:4 ~replicas:2 ~chaos proto in
      let sink = Obs.Trace.create_sink () in
      let r = Svm.Runtime.run ~sink cfg (kill_app ~checks:true) in
      check Alcotest.int
        (Printf.sprintf "%s: no failovers without a kill"
           (Svm.Config.protocol_name proto))
        0
        (sum_counter r (fun c -> c.Svm.Stats.failovers));
      Obs.Trace.iter sink (fun ev ->
          match ev.Obs.Trace.kind with
          | Obs.Trace.Failover _ | Obs.Trace.Node_kill _ ->
              Alcotest.failf "%s: spurious %s event"
                (Svm.Config.protocol_name proto)
                (Obs.Trace.kind_name ev.Obs.Trace.kind)
          | _ -> ()))
    [ Svm.Config.Lrc; Svm.Config.Hlrc ]

let suite =
  [
    ("kill the home mid-critical-section", `Quick, test_kill_home_mid_critical_section);
    ("replication preserves results", `Quick, test_replication_preserves_results);
    ("no spurious failover", `Quick, test_no_spurious_failover);
  ]
