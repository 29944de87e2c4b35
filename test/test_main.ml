let () =
  Alcotest.run "svm-hlrc"
    [
      ("sim", Test_sim.suite);
      ("obs", Test_obs.suite);
      ("mem", Test_mem.suite);
      ("proto", Test_proto.suite);
      ("machine", Test_machine.suite);
      ("system", Test_system.suite);
      ("runtime", Test_runtime.suite);
      ("protocols", Test_protocols.suite);
      ("sync", Test_sync.suite);
      ("gc", Test_gc.suite);
      ("stats", Test_stats.suite);
      ("critical_path", Test_critical_path.suite);
      ("apps", Test_apps.suite);
      ("pool", Test_pool.suite);
      ("harness", Test_harness.suite);
      ("cli", Test_cli.suite);
      ("overlap", Test_overlap.suite);
      ("aurc", Test_aurc.suite);
      ("migration", Test_migration.suite);
      ("rc", Test_rc.suite);
      ("invariants", Test_invariants.suite);
      ("regressions", Test_regressions.suite);
      ("random", Test_random.suite);
      ("chaos", Test_chaos.suite);
      ("failover", Test_failover.suite);
      ("detector", Test_detector.suite);
      ("metrics", Test_metrics.suite);
      ("record", Test_record.suite);
      ("kvstore", Test_kvstore.suite);
    ]
