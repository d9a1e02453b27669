(** The ILPPAR solve driver ([Config.solver]).  Every engine takes the
    heuristic point ({!Heuristics.best_point}); [Heuristic] answers with
    it, [Ilp] and [Portfolio] seed branch & bound with it under their
    own budgets and keep the better answer.  A failed search (limit
    without an incumbent, or an injected fault) answers with the
    heuristic point, tagged {!Solution.Heuristic}.  Race outcomes and
    ladder rungs are recorded in {!Ilp.Stats} and as trace instants. *)

(** Solve one (node, class, budget) subproblem.  [None] when the node has
    fewer than two children, the budget admits no parallelism, or no
    answer exists (the node keeps its sequential candidate); [prev]
    chains the preceding (larger-budget) outcome of the same sweep into a
    lower bound and warm starts (see {!Sweep}).  [cache] memoizes both
    the heuristic point and the search. *)
val solve_ext :
  ?stats:Ilp.Stats.t ->
  ?cache:Ilp.Memo.t ->
  ?prev:Ilp.Solver.outcome ->
  Formulation.input ->
  (Solution.t * Ilp.Solver.outcome) option

(** The full decreasing-budget sweep for one (node, class) under the
    configured engine — [input.budget] is ignored, the sweep starts at
    [total_units] — with cross-budget chaining; candidates in discovery
    order. *)
val sweep :
  ?stats:Ilp.Stats.t ->
  ?cache:Ilp.Memo.t ->
  total_units:int ->
  Formulation.input ->
  Solution.t list
