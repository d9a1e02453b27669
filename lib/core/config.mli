(** Tuning knobs of the parallelization algorithm. *)

(** Which solve engine maps each HTG node: the exact ILP (default,
    heuristic-seeded full-budget exact), the portfolio (heuristic-seeded
    reduced-budget exact), or the pure heuristic (list scheduler + seeded
    GA, no exact solver). *)
type solver = Ilp | Portfolio | Heuristic

type t = {
  max_candidates_per_class : int;
      (** cap on parallel candidates kept per (node, class) after Pareto
          pruning; the per-class sequential candidate is always kept *)
  ilp_time_limit_s : float;
      (** wall budget per generated ILP (monotonic clock); a safety net —
          for bit-reproducible runs the deterministic [ilp_work_limit]
          should be the binding limit *)
  ilp_node_limit : int;  (** branch & bound node budget per ILP *)
  ilp_work_limit : float;
      (** deterministic solve budget per ILP in simplex work units
          (tableau cells touched): machine- and schedule-independent,
          identical termination at any [jobs] value; [0.] disables *)
  max_children : int;  (** AHTG coalescing bound *)
  min_parallel_gain : float;
      (** a parallel candidate must beat the same-class sequential time by
          this factor to be kept *)
  max_split_tasks : int;  (** cap on tasks for DOALL iteration splitting *)
  enable_loop_split : bool;
      (** expose the "loop iterations" granularity level; disabling it is
          the E6 ablation *)
  enable_pipeline : bool;
      (** extract pipeline-parallel candidates from sequential loops — the
          paper's future-work extension, off by default *)
  ilp_gap_rel : float;
      (** relative optimality gap accepted by branch & bound *)
  max_steps : int;
      (** interpreted-statement budget for the profiling run *)
  jobs : int;
      (** worker domains for the solve engine: [1] = historical
          sequential driver (default), [0] = recommended domain count.
          Chosen solutions are bit-identical at any value *)
  solve_cache : bool;
      (** memoize ILP solves on a structural fingerprint; single-flight,
          deterministic results and hit counts *)
  sweep_warm_start : bool;
      (** chain budget-sweep solves: previous proven optimum as a known
          lower bound + incumbent trail as warm starts; disable to
          reproduce the pre-cache solver behaviour exactly *)
  timeout_s : float;
      (** global wall-clock deadline for executing an extracted parallel
          program ([--timeout]): past it, the runtime watchdog cancels
          the run and reports a typed timeout (or deadlock) error instead
          of hanging; [0.] (the default) disables the watchdog *)
  trace_file : string option;
      (** Chrome trace-event JSON destination ([--trace]; ["-"] =
          stdout); arms the {!Trace} recorder *)
  metrics_file : string option;
      (** unified metrics JSON destination ([--metrics]; ["-"] = stdout) *)
  profile : bool;
      (** print the human per-phase/solver profile table ([--profile]) *)
  cache_dir : string option;
      (** root of the persistent cross-run solve cache ([--cache-dir]);
          [None] (the default) keeps the cache purely in-memory *)
  cache_max_mb : int;
      (** LRU size cap of the persistent cache in MiB ([--cache-max-mb]) *)
  ilp_presolve : bool;
      (** run the {!Ilp.Presolve} reductions before each branch & bound
          search ([--presolve]); solutions are lifted back, so results
          and cache keys are unchanged at the caller boundary *)
  ilp_symmetry : bool;
      (** add lexicographic symmetry-breaking rows to each formulation
          ([--symmetry]) *)
  ilp_cuts : bool;
      (** separate knapsack cover cuts on the budget rows at the root
          ([--cuts]) *)
  solver : solver;
      (** solve engine per HTG node ([--solver]); default [Ilp] *)
  portfolio_work_limit : float;
      (** deterministic branch & bound budget per solve under
          [Portfolio], in simplex work units; [0.] disables the cap *)
}

val default : t

(** Faster, slightly less exhaustive settings for unit tests. *)
val fast : t
