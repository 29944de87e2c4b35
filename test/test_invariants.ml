(* Paranoid-mode coherence checking: every app and every protocol at Test
   scale under the barrier-time bitwise-agreement invariant (the net that
   would have caught the lost-write, notice-ordering and directory bugs of
   DESIGN.md 7 immediately). *)

let check = Alcotest.check

let test_all_apps_paranoid () =
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun protocol ->
          let cfg = Svm.Config.make ~paranoid:true ~nprocs:4 protocol in
          try ignore (Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true))
          with e ->
            Alcotest.failf "%s under %s (paranoid): %s" app.Apps.Registry.name
              (Svm.Config.protocol_name protocol) (Printexc.to_string e))
        Svm.Config.extended_protocols)
    (Apps.Registry.all Apps.Registry.Test)

(* Also the install paths over poisoned recycled frames: single and
   batched home fetches, AURC write-through and migrated homes, on the
   serving store as well as a scientific kernel. *)
let test_paranoid_with_extensions () =
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun protocol ->
          let cfg =
            Svm.Config.make ~paranoid:true ~home_migration:true ~coproc_locks:true
              ~fault_batch:4 ~nprocs:8 protocol
          in
          ignore (Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true)))
        [ Svm.Config.Hlrc; Svm.Config.Ohlrc; Svm.Config.Aurc ])
    [ Apps.Registry.water_nsq Apps.Registry.Test; Apps.Registry.kvstore Apps.Registry.Test ]

let test_paranoid_under_gc_pressure () =
  let cfg =
    Svm.Config.make ~paranoid:true ~gc_threshold_bytes:10_000 ~nprocs:4 Svm.Config.Lrc
  in
  let app = Apps.Registry.lu Apps.Registry.Test in
  let r = Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true) in
  let gc_runs =
    Array.fold_left (fun acc n -> acc + n.Svm.Runtime.nr_counters.Svm.Stats.gc_runs) 0
      r.Svm.Runtime.r_nodes
  in
  check Alcotest.bool "collections happened under the invariant" true (gc_runs > 0)

(* The checker must actually detect an incoherence: forge one directly. *)
let test_checker_detects_divergence () =
  let sys = Svm.System.create (Svm.Config.make ~paranoid:true ~nprocs:2 Svm.Config.Lrc) in
  let n0 = sys.Svm.System.nodes.(0) and n1 = sys.Svm.System.nodes.(1) in
  ignore (Svm.System.malloc sys n0 16);
  let plant node v =
    let entry = Mem.Page_table.ensure node.Svm.System.pt 0 in
    let data = Mem.Page_table.attach_copy node.Svm.System.pt entry in
    Mem.Page_table.protect entry Mem.Page_table.Read_only;
    ignore (Svm.System.page_info sys node 0);
    Mem.Words.set data 3 v
  in
  plant n0 1.0;
  plant n1 2.0;
  (try
     Svm.Invariants.check sys;
     Alcotest.fail "divergent current copies must be reported"
   with Svm.Invariants.Violation msg ->
     check Alcotest.bool "names the page and word" true
       (String.length msg > 0
       &&
       let has s sub =
         let ns = String.length s and nb = String.length sub in
         let rec go i = i + nb <= ns && (String.sub s i nb = sub || go (i + 1)) in
         go 0
       in
       has msg "page 0" && has msg "word 3"))

(* Write notices are shared, not copied. The paranoid check runs at each
   barrier's completion, before the manager applies the arrivals, so on a
   kvstore run, whose barriers come only at the start and the end, it sees
   every list the grants built up: each node's list of a creator's records
   must be a physical suffix of the creator's own. *)
let test_kvstore_chains_shared () =
  let carried = ref 0 in
  let sink =
    Obs.Trace.create_sink ~capacity:0
      ~tap:(fun ev ->
        match ev.Obs.Trace.kind with
        | Obs.Trace.Lock_grant { intervals; _ } -> carried := !carried + intervals
        | _ -> ())
      ()
  in
  let app = Apps.Registry.kvstore Apps.Registry.Test in
  ignore
    (Svm.Runtime.run ~sink
       (Svm.Config.make ~paranoid:true ~nprocs:8 Svm.Config.Hlrc)
       (app.Apps.Registry.body ~verify:true));
  check Alcotest.bool "grants carried write notices" true (!carried > 0)

(* The chain check must see a copied list: an equal list of fresh cells is
   not the creator's. *)
let test_chain_check_detects_copy () =
  let sys = Svm.System.create (Svm.Config.make ~paranoid:true ~nprocs:2 Svm.Config.Hlrc) in
  let n0 = sys.Svm.System.nodes.(0) and n1 = sys.Svm.System.nodes.(1) in
  let iv index = Proto.Interval.make ~node:0 ~index ~vt:None ~pages:[ 0 ] in
  n0.Svm.System.known.(0) <- [ iv 1; iv 0 ];
  n1.Svm.System.known.(0) <- List.tl n0.Svm.System.known.(0);
  Svm.Invariants.check_chains sys;
  n1.Svm.System.known.(0) <- [ iv 0 ];
  match Svm.Invariants.check_chains sys with
  | () -> Alcotest.fail "a copied list must be reported"
  | exception Svm.Invariants.Violation msg ->
      check Alcotest.string "names the nodes"
        "node 1's records of node 0 are not a suffix of node 0's own list" msg

let suite =
  [
    ("all apps, all protocols, paranoid", `Slow, test_all_apps_paranoid);
    ("paranoid with extensions on", `Quick, test_paranoid_with_extensions);
    ("paranoid under GC pressure", `Quick, test_paranoid_under_gc_pressure);
    ("checker detects forged divergence", `Quick, test_checker_detects_divergence);
    ("kvstore HLRC shares write-notice chains", `Quick, test_kvstore_chains_shared);
    ("chain check detects a copied list", `Quick, test_chain_check_detects_copy);
  ]
