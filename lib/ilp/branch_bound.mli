(** Branch & bound MILP solver over {!Simplex} LP relaxations.

    Best-first search on the relaxation bound, branching on the highest
    priority / most fractional integer variable; a rounding heuristic, a
    periodic fix-and-solve completion, and an optional caller-supplied
    warm start seed the incumbent so that node and time limits still
    return a feasible solution. *)

type status =
  | Optimal  (** proved optimal within tolerance *)
  | Feasible  (** limit hit; best incumbent returned *)
  | Infeasible
  | Unbounded
  | Limit
      (** a work/node/time limit ran out before any incumbent was found:
          feasibility is unknown.  Callers should fall back to a degraded
          construction (a heuristic schedule) rather than treat the
          subproblem as infeasible.  A warm-started solve never
          returns [Limit]: the seed already is an incumbent. *)

type solution = {
  status : status;
  x : float array option;
  obj : float;  (** objective of [x] in the model's own sense *)
  nodes : int;  (** branch & bound nodes processed *)
  pivots : int;
      (** simplex pivots summed over all LP relaxations of this solve —
          exact and deterministic, unlike wall-clock time *)
  cuts : int;  (** cover cuts added by the root rounds *)
  incumbents : float array list;
      (** trail of improving incumbents, most recent (= best) first,
          capped at a few entries; feed them to a related solve's
          [extra_starts] to seed its incumbent early *)
}

type options = {
  time_limit_s : float;  (** wall-clock limit (monotonic clock) *)
  node_limit : int;
  work_limit : float;
      (** deterministic budget in {!Simplex} work units (tableau cells
          touched); unlike [time_limit_s], identical runs hit it at the
          identical node on any machine / domain count.  [infinity]
          disables it. *)
  known_lb : float;
      (** caller-proven lower bound on the optimal objective key
          (minimize sense; negated objective for maximize models).  The
          search stops with {!Optimal} once the incumbent is within the
          optimality gap of it.  [neg_infinity] disables it. *)
  gap_abs : float;  (** absolute optimality gap for fathoming *)
  gap_rel : float;  (** relative optimality gap for fathoming *)
  int_tol : float;  (** integrality tolerance *)
  presolve : bool;
      (** run the {!Presolve} reductions before the search.  Acted on by
          {!Solver.solve} (which lifts the reduced solution back);
          carried in [options] so the toggle participates in {!Memo}
          fingerprints.  Off in {!default_options}. *)
  cut_rounds : int;
      (** rounds of root cover-cut separation; 0 (the default)
          disables cutting planes entirely *)
  hard_work_limit : bool;
      (** enforce [work_limit] inside LP solves too: a relaxation that
          would overshoot the remaining budget aborts mid-solve and the
          search stops with its current incumbent.  Off (the default,
          historical behavior); switched on by the portfolio engine,
          whose reduced budget is smaller than a single hard root LP. *)
}

val default_options : options

(** Solve the MILP.  [warm_start], when feasible, becomes the initial
    incumbent; [extra_starts] are further candidate starting points
    (infeasible ones are skipped). *)
val solve :
  ?options:options ->
  ?warm_start:float array ->
  ?extra_starts:float array list ->
  Model.t ->
  solution
