(** Tuning knobs of the parallelization algorithm. *)

(** Which solve engine maps each HTG node ({!Portfolio} drives all three).

    [Ilp] is the paper's exact Eq. 1–18 branch & bound, seeded with the
    heuristic point.  [Heuristic] replaces the solver entirely with the
    AMTHA-style list scheduler plus the seeded GA refiner: milliseconds
    per node, near-optimal schedules, results tagged with the
    [Heuristic] tier (not degraded, exit 0).  [Portfolio] seeds branch &
    bound with the heuristic point the same way but under a reduced
    deterministic work budget ([portfolio_work_limit]): the exact search
    either proves optimality quickly or returns the (possibly improved)
    incumbent — never worse than the heuristic, usually much faster than
    the full exact solve. *)
type solver = Ilp | Portfolio | Heuristic

type t = {
  max_candidates_per_class : int;
      (** cap on parallel solution candidates kept per (node, class) after
          Pareto pruning; the per-class sequential candidate is always kept *)
  ilp_time_limit_s : float;
      (** wall budget per generated ILP (monotonic clock).  A safety net
          only: when bit-reproducibility matters, make sure the
          deterministic [ilp_work_limit] is the binding limit, since wall
          time varies run to run *)
  ilp_node_limit : int;  (** branch & bound node budget per ILP *)
  ilp_work_limit : float;
      (** deterministic solve budget per generated ILP, measured in
          simplex work units (tableau cells touched).  Unlike the wall
          budget this is machine- and schedule-independent, so runs
          terminate identically anywhere and at any [jobs] value.
          [0.] disables it.  As calibration: 1e8 units is roughly 0.5 s
          of solving on a 2020s core *)
  max_children : int;  (** AHTG coalescing bound, see {!Htg.Build} *)
  min_parallel_gain : float;
      (** a parallel candidate must beat the same-class sequential time by
          this factor to be kept (filters noise-level "improvements") *)
  max_split_tasks : int;  (** cap on tasks for DOALL iteration splitting *)
  enable_loop_split : bool;
      (** expose the "loop iterations" granularity level (DOALL splitting);
          disabling it is the E6 ablation *)
  enable_pipeline : bool;
      (** extract pipeline-parallel candidates from sequential loops — the
          paper's future-work extension; off by default so the
          reproduction of the paper's figures is unaffected *)
  ilp_gap_rel : float;
      (** relative optimality gap accepted by branch & bound; the paper's
          solvers run to proven optimality, but a sub-percent gap changes
          no mapping decision and keeps solve times in check *)
  max_steps : int;
      (** interpreted-statement budget for the profiling run (and any
          runtime execution derived from it) *)
  jobs : int;
      (** worker domains for the compile-side solve engine: sibling
          subtree parallelizations and the independent (class, kind)
          budget sweeps of a node become pool tasks.  [1] (the default)
          keeps the historical fully sequential driver; [0] means
          [Domain.recommended_domain_count ()].  Chosen solutions are
          bit-identical at any value (see DESIGN.md on determinism) *)
  solve_cache : bool;
      (** memoize ILP solves on a structural fingerprint ({!Ilp.Memo}):
          isomorphic subproblems across budgets, classes and tree nodes
          are solved once.  Single-flight, so hit counts and results stay
          deterministic under parallel solving *)
  sweep_warm_start : bool;
      (** chain the solves of one decreasing-budget sweep: the previous
          budget's proven optimum becomes a [known_lb] (valid because
          shrinking the budget only shrinks the feasible set), and its
          improving-incumbent trail seeds the next solve's incumbent.
          Prunes substantially; disable to reproduce the pre-cache
          solver behaviour exactly *)
  timeout_s : float;
      (** global wall-clock deadline for executing an extracted parallel
          program ([--timeout]): past it, the runtime watchdog cancels the
          run and reports a typed timeout (or deadlock) error instead of
          hanging.  [0.] (the default) disables the watchdog *)
  trace_file : string option;
      (** write a Chrome trace-event JSON of the run here ([--trace];
          ["-"] is stdout).  Arms the {!Trace} recorder, which otherwise
          costs one atomic read per probe *)
  metrics_file : string option;
      (** write the unified metrics JSON here ([--metrics]; ["-"] is
          stdout) *)
  profile : bool;
      (** print the human per-phase/solver profile table ([--profile]) *)
  cache_dir : string option;
      (** root of the persistent cross-run solve cache ([--cache-dir]).
          [None] (the default) keeps the cache purely in-memory.  Warm
          runs answer every structural solve from disk — bit-identical
          to cold runs — and skip ILPPAR entirely *)
  cache_max_mb : int;
      (** LRU size cap of the persistent cache's data file in MiB
          ([--cache-max-mb]); least-recently-used entries are evicted by
          compaction once the cap is exceeded *)
  ilp_presolve : bool;
      (** run the {!Ilp.Presolve} reductions (bound tightening, implied
          fixing, dominated columns) before each branch & bound search
          ([--presolve]); the solution is lifted back, so results and
          cache keys are unchanged at the caller boundary *)
  ilp_symmetry : bool;
      (** add lexicographic symmetry-breaking rows to each formulation
          ([--symmetry]): used-task contiguity and no-empty-used-tasks
          complete the paper's Eq. 10 task-label canonicalization *)
  ilp_cuts : bool;
      (** separate knapsack cover cuts on the budget rows at the root
          ([--cuts]) *)
  solver : solver;
      (** solve engine per HTG node ([--solver]): [Ilp] (exact,
          default), [Portfolio] (heuristic incumbent + reduced-budget
          exact), or [Heuristic] (no exact solver at all) *)
  portfolio_work_limit : float;
      (** deterministic branch & bound budget per solve under
          [Portfolio], in simplex work units; deliberately a fraction of
          [ilp_work_limit] — the heuristic incumbent keeps quality while
          the smaller budget buys the portfolio's wall-time win.  [0.]
          disables the cap (portfolio degenerates to seeded exact) *)
}

let default =
  {
    max_candidates_per_class = 3;
    ilp_time_limit_s = 2.;
    ilp_node_limit = 3_000;
    ilp_work_limit = 4e8;
    max_children = 8;
    min_parallel_gain = 1.02;
    max_split_tasks = 8;
    enable_loop_split = true;
    enable_pipeline = false;
    ilp_gap_rel = 0.005;
    max_steps = 50_000_000;
    jobs = 1;
    solve_cache = true;
    sweep_warm_start = true;
    timeout_s = 0.;
    trace_file = None;
    metrics_file = None;
    profile = false;
    cache_dir = None;
    cache_max_mb = 512;
    ilp_presolve = true;
    ilp_symmetry = true;
    ilp_cuts = true;
    solver = Ilp;
    portfolio_work_limit = 4e6;
  }

(** Faster, slightly less exhaustive settings for unit tests. *)
let fast =
  {
    default with
    ilp_time_limit_s = 0.5;
    ilp_node_limit = 800;
    ilp_work_limit = 1e8;
    max_candidates_per_class = 2;
    ilp_gap_rel = 0.01;
  }
