let () =
  Alcotest.run "flexvec"
    [
      ("isa", Test_isa.suite);
      ("memory", Test_memory.suite);
      ("interp", Test_interp.suite);
      ("pdg", Test_pdg.suite);
      ("vectorizer", Test_vectorizer.suite);
      ("simd", Test_simd.suite);
      ("ooo", Test_ooo.suite);
      ("pipeline-events", Test_pipeline_events.suite);
      ("simcache", Test_simcache.suite);
      ("oracle", Test_oracle.suite);
      ("workloads", Test_workloads.suite);
      ("semantics", Test_semantics.suite);
      ("integration", Test_integration.suite);
      ("parallel", Test_parallel.suite);
      ("budget", Test_budget.suite);
      ("faults", Test_faults.suite);
      ("random", Test_random.suite);
      ("validate", Test_validate.suite);
      ("fuzz", Test_fuzz.suite);
      ("obs", Test_obs.suite);
      ("cache", Test_cache.suite);
      ("serve", Test_serve.suite);
      ("snapshot", Test_snapshot.suite);
      ("chaos", Test_chaos.suite);
      ("auto", Test_auto.suite);
      ("trace", Test_trace.suite);
    ]
