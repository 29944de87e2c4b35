(* Garbage collection of protocol data (homeless protocols, paper 3.5):
   triggering, memory reclamation, and correctness across collections. *)

let check = Alcotest.check

(* A workload that keeps producing diffs across barriers: every node
   repeatedly rewrites its slice of a multi-page array. *)
let churn_app ~rounds ctx =
  let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
  let words = 16 * 1024 in
  (* 16 pages *)
  if me = 0 then ignore (Svm.Api.malloc ctx ~name:"churn" words);
  Svm.Api.barrier ctx;
  Svm.Api.start_timing ctx;
  let a = Svm.Api.root ctx "churn" in
  let lo, hi = Apps.App_util.chunk ~n:words ~nparts:np me in
  for round = 1 to rounds do
    for i = lo to hi - 1 do
      Svm.Api.write_int ctx (a + i) ((round * 1_000_000) + i)
    done;
    Svm.Api.barrier ctx;
    (* read a remote slice to force diff traffic *)
    let peer = (me + 1) mod np in
    let plo, phi = Apps.App_util.chunk ~n:words ~nparts:np peer in
    for i = plo to phi - 1 do
      check Alcotest.int "peer slice fresh" ((round * 1_000_000) + i)
        (Svm.Api.read_int ctx (a + i))
    done;
    Svm.Api.barrier ctx
  done

let run_with_threshold threshold =
  let cfg =
    Svm.Config.make ~gc_threshold_bytes:threshold ~nprocs:4 Svm.Config.Lrc
  in
  Svm.Runtime.run cfg (churn_app ~rounds:6)

let total_gc_runs r =
  Array.fold_left (fun acc n -> acc + n.Svm.Runtime.nr_counters.Svm.Stats.gc_runs) 0
    r.Svm.Runtime.r_nodes

let test_gc_triggers_under_pressure () =
  let r = run_with_threshold 60_000 in
  check Alcotest.bool "gc ran on every node" true (total_gc_runs r >= 4);
  (* GC time must be accounted *)
  let gc_time =
    Array.fold_left (fun acc n -> acc +. n.Svm.Runtime.nr_breakdown.Svm.Stats.gc) 0.
      r.Svm.Runtime.r_nodes
  in
  check Alcotest.bool "gc time accounted" true (gc_time > 0.)

let test_gc_reclaims_memory () =
  let with_gc = run_with_threshold 60_000 in
  let without_gc = run_with_threshold max_int in
  check Alcotest.int "no gc without pressure" 0 (total_gc_runs without_gc);
  check Alcotest.bool "gc lowers the final protocol memory" true
    (Svm.Runtime.max_mem_peak with_gc * 2 < Svm.Runtime.max_mem_peak without_gc
    || with_gc.Svm.Runtime.r_nodes.(0).Svm.Runtime.nr_mem_end
       < without_gc.Svm.Runtime.r_nodes.(0).Svm.Runtime.nr_mem_end)

let test_gc_preserves_correctness () =
  (* the churn app checks its own data every round; also run the LU kernel
     under heavy GC pressure *)
  let cfg = Svm.Config.make ~gc_threshold_bytes:10_000 ~nprocs:4 Svm.Config.Lrc in
  let app = Apps.Registry.lu Apps.Registry.Test in
  let r = Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true) in
  check Alcotest.bool "lu verified under gc pressure" true (total_gc_runs r > 0)

let test_gc_not_used_by_home_based () =
  let cfg = Svm.Config.make ~gc_threshold_bytes:1 ~nprocs:4 Svm.Config.Hlrc in
  let r = Svm.Runtime.run cfg (churn_app ~rounds:3) in
  check Alcotest.int "home-based protocols never collect" 0 (total_gc_runs r)

let test_gc_overlapped_variant () =
  let cfg = Svm.Config.make ~gc_threshold_bytes:60_000 ~nprocs:4 Svm.Config.Olrc in
  let r = Svm.Runtime.run cfg (churn_app ~rounds:6) in
  check Alcotest.bool "OLRC collects too" true (total_gc_runs r > 0)

(* A node killed mid-run never reports its sweep: the discard rendezvous
   completes on the live nodes' reports, as the barrier does on their
   arrivals. SOR at bench scale collects at its first barrier, so both
   kill times fall before a collection. *)
let test_gc_survives_a_kill () =
  List.iter
    (fun proto ->
      List.iter
        (fun kill ->
          let argv =
            [ "--app"; "sor"; "--protocol"; proto; "--nodes"; "4"; "--replicas"; "2"; "--kill";
              kill; "--no-verify" ]
          in
          let o = Report_cases.parse argv in
          match Harness.Cli.execute o with
          | out -> check Alcotest.bool (String.concat " " argv) true (total_gc_runs out.report > 0)
          | exception Svm.System.Deadlock _ ->
              Alcotest.failf "%s: deadlock" (String.concat " " argv))
        [ "3@51000"; "3@1000000" ])
    [ "lrc"; "olrc" ]

(* When the victim dies after every other live node has reported, only its
   death can complete the rendezvous. Here node 3 is the last to sweep and
   dies mid-sweep, with a collection at every barrier. *)
let test_gc_completes_on_a_death () =
  let chaos =
    { Machine.Chaos.none with faults = [ Machine.Chaos.Kill { node = 3; at = 43898. } ] }
  in
  let cfg = Svm.Config.make ~nprocs:4 ~replicas:2 ~gc_threshold_bytes:1 ~chaos Svm.Config.Lrc in
  let app = Apps.Registry.lu Apps.Registry.Test in
  match Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:false) with
  | r -> check Alcotest.bool "collected" true (total_gc_runs r > 0)
  | exception Svm.System.Deadlock _ -> Alcotest.fail "deadlock"

let suite =
  [
    ("gc triggers under pressure", `Quick, test_gc_triggers_under_pressure);
    ("gc survives a mid-run kill", `Quick, test_gc_survives_a_kill);
    ("gc completes on a death", `Quick, test_gc_completes_on_a_death);
    ("gc reclaims memory", `Quick, test_gc_reclaims_memory);
    ("gc preserves correctness", `Quick, test_gc_preserves_correctness);
    ("home-based protocols never collect", `Quick, test_gc_not_used_by_home_based);
    ("OLRC collects too", `Quick, test_gc_overlapped_variant);
  ]
