let () =
  Alcotest.run "engine"
    [
      ("rng", Test_rng.suite);
      ("coroutine", Test_coroutine.suite);
      ("sched-smoke", Test_sched_smoke.suite);
      ("sched", Test_sched.suite);
      ("barrier", Test_barrier.suite);
      ("future", Test_future.suite);
      ("trace", Test_trace.suite);
      ("json", Test_json.suite);
      ("par", Test_par.suite);
    ]
