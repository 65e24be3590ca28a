let () =
  Alcotest.run "serving"
    [
      ("serve", Test_serve.suite);
      ("energy", Test_energy.suite);
      ("replica", Test_replica.suite);
      ("histogram-prop", Test_prop_histogram.suite);
      ("faults", Test_faults.suite);
      ("jobs", Test_jobs.suite);
    ]
