(** The global parallelization algorithm (paper Algorithm 1): bottom-up
    over the AHTG, running the partitioning-and-mapping ILP once per
    processor class and per decreasing processor budget, collecting tagged
    parallel solution candidates per node; DOALL loops additionally
    receive iteration-splitting candidates.  Sets are Pareto-pruned per
    class with the per-class sequential candidate always retained (which
    guarantees feasibility of every parent ILP). *)

type result = {
  root_set : Solution.set;
  root : Solution.t;
      (** best candidate whose main class is the platform's main class —
          the one Algorithm 1 line 4 implements *)
  sets : (int, Solution.set) Hashtbl.t;  (** per AHTG node id *)
  stats : Ilp.Stats.t;
  wall_time_s : float;
  disk_cache : Cache.Store.counters option;
      (** persistent-cache traffic of this run ([None] without a store) *)
  solver : Config.solver;
      (** engine the run used ([Config.solver]); {!degradation} judges
          the root's tag against this mode's acceptable tier *)
}

(** Sequential candidate of a node on a class (children, if any, use their
    sequential candidates of the same class). *)
val seq_candidate :
  (int, Solution.set) Hashtbl.t ->
  Platform.Desc.t ->
  Htg.Node.t ->
  int ->
  Solution.t

(** Run Algorithm 1.  With [cfg.jobs > 1] (or [= 0], meaning the
    recommended domain count), sibling subtrees and the independent
    (class, sweep-kind) budget sweeps run as tasks on a domain pool —
    [pool] reuses an existing one, otherwise the run creates and shuts
    down its own.  Chosen solutions (and their [time_us]) are
    bit-identical at any [jobs] value; see the implementation notes on
    why.  [cfg.solve_cache] memoizes structurally identical ILPs within
    the run; [store] (or [cfg.cache_dir], which opens a run-private one)
    adds the persistent cross-run tier under the same single-flight memo,
    so a warm run answers every solve from disk, bit-identically.
    [memo] shares one in-memory solve cache across runs (server mode
    keeps a hot memo per platform); it takes precedence over
    [cfg.solve_cache], and its backing tier must have been created with
    this platform's salt. *)
val parallelize :
  ?cfg:Config.t ->
  ?stats:Ilp.Stats.t ->
  ?pool:Taskpool.Pool.t ->
  ?store:Cache.Store.t ->
  ?memo:Ilp.Memo.t ->
  Platform.Desc.t ->
  Htg.Node.t ->
  result

val digest : result -> string
(** Canonical hex digest of everything the run decided (root solution,
    root candidate set, every node's candidate set in node-id order).
    Two runs chose bit-identical solutions iff their digests match; the
    batch CLI prints it per target and the serve protocol returns it
    per request. *)

val degradation : result -> string option
(** [Some name] iff the run must be reported degraded-but-valid (CLI
    exit 2 / serve status [degraded]): the chosen solution carries a
    degradation tag outside the solver mode's contract, or the solver
    ladder engaged during the sweep.  [name] is the root's worst tag,
    suffixed ["(ladder engaged during the sweep)"] in the second case. *)

val degradation_message : string -> string
(** The user-facing explanation of a {!degradation} verdict, shared by
    the CLI's stderr line and the serve response's [message]. *)
