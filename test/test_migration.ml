(* Adaptive home migration (extension): correctness under migration churn,
   the migration actually firing, and the performance win on
   badly-placed-home workloads. *)

let check = Alcotest.check

let total_migrations (r : Svm.Runtime.report) =
  Array.fold_left (fun acc n -> acc + n.Svm.Runtime.nr_counters.Svm.Stats.home_migrations) 0
    r.Svm.Runtime.r_nodes

(* Every page is allocated with its home on node 0, then written repeatedly
   by its (different) owner across barriers — the worst placement, which
   migration must repair. *)
let bad_home_app ~rounds ctx =
  let me = Svm.Api.pid ctx and np = Svm.Api.nprocs ctx in
  let words_per = 1024 in
  if me = 0 then
    ignore (Svm.Api.malloc ctx ~name:"a" ~home:(fun _ -> 0) (np * words_per));
  Svm.Api.barrier ctx;
  Svm.Api.start_timing ctx;
  let a = Svm.Api.root ctx "a" in
  for round = 1 to rounds do
    for i = 0 to words_per - 1 do
      Svm.Api.write_int ctx (a + (me * words_per) + i) ((round * 100_000) + i)
    done;
    Svm.Api.barrier ctx;
    (* read the neighbour's page to keep coherence exercised *)
    let peer = (me + 1) mod np in
    for i = 0 to 63 do
      check Alcotest.int "neighbour fresh" ((round * 100_000) + i)
        (Svm.Api.read_int ctx (a + (peer * words_per) + i))
    done;
    Svm.Api.barrier ctx
  done

let test_migration_fires_and_stays_correct () =
  List.iter
    (fun protocol ->
      let cfg = Svm.Config.make ~home_migration:true ~nprocs:4 protocol in
      let r = Svm.Runtime.run cfg (bad_home_app ~rounds:4) in
      check Alcotest.bool
        (Svm.Config.protocol_name protocol ^ ": pages migrated")
        true (total_migrations r > 0))
    [ Svm.Config.Hlrc; Svm.Config.Ohlrc; Svm.Config.Aurc ]

let test_migration_improves_bad_placement () =
  let run home_migration =
    let cfg = Svm.Config.make ~home_migration ~nprocs:8 Svm.Config.Hlrc in
    (Svm.Runtime.run cfg (bad_home_app ~rounds:6)).Svm.Runtime.r_elapsed
  in
  let fixed = run false and migrating = run true in
  check Alcotest.bool
    (Printf.sprintf "migration helps (%.0f -> %.0f us)" fixed migrating)
    true (migrating < fixed)

let test_migration_off_by_default () =
  let cfg = Svm.Config.make ~nprocs:4 Svm.Config.Hlrc in
  let r = Svm.Runtime.run cfg (bad_home_app ~rounds:3) in
  check Alcotest.int "no migrations unless enabled" 0 (total_migrations r)

let test_migration_ignored_by_homeless () =
  let cfg = Svm.Config.make ~home_migration:true ~nprocs:4 Svm.Config.Lrc in
  let r = Svm.Runtime.run cfg (bad_home_app ~rounds:3) in
  check Alcotest.int "homeless protocols have no homes to move" 0 (total_migrations r)

let test_apps_verify_under_migration () =
  List.iter
    (fun (app : Apps.Registry.t) ->
      List.iter
        (fun protocol ->
          let cfg = Svm.Config.make ~home_migration:true ~nprocs:8 protocol in
          try ignore (Svm.Runtime.run cfg (app.Apps.Registry.body ~verify:true))
          with e ->
            Alcotest.failf "%s under %s with migration: %s" app.Apps.Registry.name
              (Svm.Config.protocol_name protocol) (Printexc.to_string e))
        [ Svm.Config.Hlrc; Svm.Config.Ohlrc; Svm.Config.Aurc ])
    (Apps.Registry.all Apps.Registry.Test)

(* The lock-chain matrix again, now with homes moving underneath it. *)
let test_accumulation_under_migration () =
  List.iter
    (fun protocol ->
      List.iter
        (fun nprocs ->
          let cfg = Svm.Config.make ~home_migration:true ~nprocs protocol in
          ignore (Svm.Runtime.run cfg Test_aurc.accumulate_app))
        [ 2; 4; 8 ])
    [ Svm.Config.Hlrc; Svm.Config.Ohlrc; Svm.Config.Aurc ]

(* Random DRF programs on 16-word pages, so a page holds parts of several
   locked regions, with homes moving at barriers. A lock-protected update
   must survive a migration: the barrier's releases wait for the moved
   masters, so no flush reaches a new home before its master does. *)
let test_random_programs_under_migration () =
  let rand = Random.State.make [| 7 |] in
  let programs = List.init 601 (fun _ -> QCheck.Gen.generate1 ~rand Test_random.gen_program) in
  let failures =
    List.concat_map
      (fun protocol ->
        let label = Svm.Config.protocol_name protocol in
        List.filter_map
          (fun (p : Test_random.program) ->
            let cfg =
              Svm.Config.make ~paranoid:true ~page_words:16 ~home_migration:true
                ~nprocs:p.nprocs protocol
            in
            match Svm.Runtime.run cfg (Test_random.body ~label p) with
            | _ -> None
            | exception Failure msg -> Some msg)
          programs)
      [ Svm.Config.Hlrc; Svm.Config.Ohlrc; Svm.Config.Aurc ]
  in
  check Alcotest.(list string) "no update lost" [] failures

let suite =
  [
    ("migration fires and stays correct", `Quick, test_migration_fires_and_stays_correct);
    ("random programs keep their updates", `Quick, test_random_programs_under_migration);
    ("migration repairs bad placement", `Quick, test_migration_improves_bad_placement);
    ("off by default", `Quick, test_migration_off_by_default);
    ("ignored by homeless protocols", `Quick, test_migration_ignored_by_homeless);
    ("all applications verify under migration", `Slow, test_apps_verify_under_migration);
    ("lock-chain matrix under migration", `Quick, test_accumulation_under_migration);
  ]
