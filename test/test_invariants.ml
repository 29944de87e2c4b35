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
    entry.Mem.Page_table.prot <- Mem.Page_table.Read_only;
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

let suite =
  [
    ("all apps, all protocols, paranoid", `Slow, test_all_apps_paranoid);
    ("paranoid with extensions on", `Quick, test_paranoid_with_extensions);
    ("paranoid under GC pressure", `Quick, test_paranoid_under_gc_pressure);
    ("checker detects forged divergence", `Quick, test_checker_detects_divergence);
  ]
