(* charm_fuzz: seeded scenario fuzzing for the simulator stack.

   Draws random end-to-end scenarios (topology, system, worker count,
   fault schedule, batch workload or multi-tenant serving mix), runs each
   with executable invariants on, and checks determinism (two fresh runs
   must agree byte-for-byte on report, trace and results) plus functional
   equality against sequential / single-worker references.  On failure the
   scenario is shrunk to a minimal still-failing one and printed as a
   ready-to-paste charm_run / charm_serve command line.

   Examples:
     charm_fuzz --seeds 200 --smoke            # the CI gate
     charm_fuzz --seeds 50 --start-seed 1000   # a nightly shard
     charm_fuzz --plant skip-ready-clamp --seeds 50 --expect-violation

   Exit codes: 0 all scenarios clean (or an expected violation was caught
   and shrunk), 1 a scenario failed (repro on stdout and in --out), 2 a
   planted violation was NOT caught. *)

open Cmdliner

let main seeds start_seed smoke plant expect_violation max_repro_faults out =
  Chipsim.Invariant.Plant.set plant;
  let mode = if smoke then Check.Scenario.Smoke else Check.Scenario.Deep in
  let outcome =
    Check.Fuzz.run
      ~log:(fun line ->
        Printf.eprintf "%s\n%!" line)
      ~mode ~start_seed ~seeds ()
  in
  let text = Check.Fuzz.outcome_to_text outcome in
  print_string text;
  (match out with
  | Some file ->
      let oc = open_out file in
      output_string oc text;
      (match outcome with
      | Check.Fuzz.Failed f ->
          output_string oc
            (Printf.sprintf "\n# minimized scenario spec\n%s\n" f.repro)
      | Check.Fuzz.Clean _ -> ());
      close_out oc
  | None -> ());
  match (outcome, expect_violation) with
  | Check.Fuzz.Clean _, false -> exit 0
  | Check.Fuzz.Clean _, true ->
      Printf.eprintf
        "charm_fuzz: expected a violation but every scenario passed\n";
      exit 2
  | Check.Fuzz.Failed f, true ->
      let n_faults = List.length f.minimized.Check.Scenario.faults in
      if f.failure.Check.Scenario.oracle <> "invariant" then begin
        Printf.eprintf
          "charm_fuzz: expected an invariant violation but the failing \
           oracle was %s\n"
          f.failure.Check.Scenario.oracle;
        exit 2
      end
      else if n_faults > max_repro_faults then begin
        Printf.eprintf
          "charm_fuzz: violation caught but the shrunk repro keeps %d fault \
           events (limit %d)\n"
          n_faults max_repro_faults;
        exit 2
      end
      else begin
        Printf.eprintf
          "charm_fuzz: planted violation caught and shrunk to %d fault \
           events\n"
          n_faults;
        exit 0
      end
  | Check.Fuzz.Failed _, false -> exit 1

let seeds_arg =
  Arg.(value & opt int 50 & info [ "seeds" ] ~doc:"Number of scenarios to run.")

let start_seed_arg =
  Arg.(value & opt int 0 & info [ "start-seed" ] ~doc:"First generation seed (scenario i uses start-seed + i).")

let smoke_arg =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "Draw small scenarios (single-socket machine, few workers, small \
           inputs) — the fast CI gate. Without it, scenarios span every \
           preset machine and wider size ranges (the nightly fuzz).")

let expect_arg =
  Arg.(
    value & flag
    & info [ "expect-violation" ]
        ~doc:
          "Invert the exit semantics: succeed only if an invariant \
           violation is found and shrunk within --max-repro-faults events.")

let max_repro_arg =
  Arg.(
    value & opt int 5
    & info [ "max-repro-faults" ]
        ~doc:
          "With --expect-violation, the maximum fault-schedule events the \
           shrunk repro may keep.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Also write the outcome report (and any repro spec) to $(docv) — the CI failure artifact.")

let cmd =
  let doc = "fuzz the simulator with seeded end-to-end scenarios and shrinking repros" in
  Cmd.v
    (Cmd.info "charm_fuzz" ~doc)
    Term.(
      const main $ seeds_arg $ start_seed_arg $ smoke_arg $ Cli.plant
      $ expect_arg $ max_repro_arg $ out_arg)

let () = exit (Cmd.eval cmd)
