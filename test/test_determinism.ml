(* Determinism of the parallel parallelizer: for every suite benchmark
   and both evaluation platforms, the chosen solution sets must be
   bit-identical whether the solve engine runs sequentially ([jobs = 1])
   or fans out onto 2 or 8 worker domains.  ILP and cache-hit counts must
   match too (the cache is single-flight, so even those are exact).

   The configuration pins the deterministic work limit as the only solve
   bound (wall budget disabled): wall-time limits are the one knob that
   could legitimately break reproducibility across schedules. *)

let cfg =
  {
    Parcore.Config.fast with
    Parcore.Config.ilp_time_limit_s = infinity;
    ilp_work_limit = 1e7;
  }

(* canonical projection of a result: root choice, per-class root set,
   every node's candidate set, and the (deterministic) counters *)
let canon (r : Parcore.Algorithm.result) =
  ( r.Parcore.Algorithm.root,
    r.Parcore.Algorithm.root_set,
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.Parcore.Algorithm.sets []),
    r.Parcore.Algorithm.stats.Ilp.Stats.ilps,
    r.Parcore.Algorithm.stats.Ilp.Stats.cache_hits )

let check_benchmark ?(cfg = cfg) (b : Benchsuite.Suite.t) (pf : Platform.Desc.t)
    () =
  let prog = Benchsuite.Suite.compile b in
  let profile = (Interp.Eval.run prog).Interp.Eval.profile in
  let run jobs =
    let out =
      Parcore.Parallelize.run_program
        ~cfg:{ cfg with Parcore.Config.jobs }
        ~profile ~approach:Parcore.Parallelize.Heterogeneous ~platform:pf prog
    in
    canon out.Parcore.Parallelize.algo
  in
  let r1 = run 1 in
  let r2 = run 2 in
  let r8 = run 8 in
  Alcotest.(check bool)
    (Printf.sprintf "%s on %s: jobs=2 matches jobs=1" b.Benchsuite.Suite.name
       pf.Platform.Desc.name)
    true (r1 = r2);
  Alcotest.(check bool)
    (Printf.sprintf "%s on %s: jobs=8 matches jobs=1" b.Benchsuite.Suite.name
       pf.Platform.Desc.name)
    true (r1 = r8)

(* The ILP acceleration toggles (PR 7) change the search trajectory, so
   each combination must independently stay bit-identical across worker
   counts.  The default config above runs them all on over the full
   suite; here a small benchmark subset re-runs with them all off and
   with a mixed set, so a toggle can't smuggle in schedule-dependent
   state (e.g. a racy cut pool or seed). *)
let toggle_cfgs =
  [
    ( "accel-off",
      {
        cfg with
        Parcore.Config.ilp_presolve = false;
        ilp_symmetry = false;
        ilp_cuts = false;
      } );
    ( "accel-mixed",
      {
        cfg with
        Parcore.Config.ilp_presolve = true;
        ilp_symmetry = false;
        ilp_cuts = true;
      } );
  ]

(* The solver portfolio (PR 10) must be reproducible too: the heuristic
   engine is seeded-deterministic and the race decision depends only on
   deterministic work counters, so portfolio and pure-heuristic runs must
   stay bit-identical across worker counts exactly like the ILP engine
   (which the default config above already covers).  [canon] includes the
   ilps and cache_hits counters, so a schedule-dependent race would show
   up even when both engines happen to pick the same schedule. *)
let solver_cfgs =
  [
    ( "portfolio",
      {
        cfg with
        Parcore.Config.solver = Parcore.Config.Portfolio;
        portfolio_work_limit = 4e6;
      } );
    ("heuristic", { cfg with Parcore.Config.solver = Parcore.Config.Heuristic });
  ]

let toggle_benchmarks =
  List.filter
    (fun (b : Benchsuite.Suite.t) ->
      List.mem b.Benchsuite.Suite.name [ "boundary_value"; "mult_10"; "fir_256" ])
    Benchsuite.Suite.all

let suite =
  List.concat_map
    (fun (b : Benchsuite.Suite.t) ->
      List.map
        (fun (pf : Platform.Desc.t) ->
          Alcotest.test_case
            (Printf.sprintf "%s / %s" b.Benchsuite.Suite.name
               pf.Platform.Desc.name)
            `Slow
            (check_benchmark b pf))
        [
          Platform.Presets.platform_a_accel; Platform.Presets.platform_b_accel;
        ])
    Benchsuite.Suite.all
  @ List.concat_map
      (fun (name, cfg) ->
        List.map
          (fun (b : Benchsuite.Suite.t) ->
            Alcotest.test_case
              (Printf.sprintf "%s / %s / %s" b.Benchsuite.Suite.name
                 Platform.Presets.platform_a_accel.Platform.Desc.name name)
              `Slow
              (check_benchmark ~cfg b Platform.Presets.platform_a_accel))
          toggle_benchmarks)
      toggle_cfgs
  @ List.concat_map
      (fun (name, cfg) ->
        List.map
          (fun (b : Benchsuite.Suite.t) ->
            Alcotest.test_case
              (Printf.sprintf "%s / %s / solver=%s" b.Benchsuite.Suite.name
                 Platform.Presets.platform_a_accel.Platform.Desc.name name)
              `Slow
              (check_benchmark ~cfg b Platform.Presets.platform_a_accel))
          toggle_benchmarks)
      solver_cfgs
