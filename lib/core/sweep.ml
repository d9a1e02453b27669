(** Shared driver for the decreasing-budget solve sweeps of Algorithm 1
    (lines 14-20): ILPPAR, loop splitting and pipelining all run the same
    loop — solve at budget [i], keep the candidate, continue at one unit
    less than the candidate actually used.

    Centralizing the loop here also centralizes the cross-budget warm
    starts ([Config.sweep_warm_start]):

    - the models of one sweep differ only in the budget, and a smaller
      budget only shrinks the feasible set, so the previous (larger)
      budget's {e proven} optimum is a valid lower bound [known_lb] on the
      next optimum — branch & bound can stop with a proof as soon as its
      incumbent is within the optimality gap of it;
    - the previous solve's improving-incumbent trail is passed as extra
      starting points; early incumbents often use few units and remain
      feasible at the reduced budget (infeasible ones are filtered by the
      solver).  Points are only forwarded while the variable layout is
      unchanged (same variable count ⇒ same task count ⇒ same layout,
      since all three model builders lay variables out identically for a
      given task count). *)

open Ilp

(** Per-solve options derived from the configuration, plus the [known_lb]
    chained from the previous solve of the sweep (minimize-sense models
    only — all three generators minimize a makespan). *)
let chain_options (cfg : Config.t) (prev : Solver.outcome option) :
    Branch_bound.options =
  let base =
    {
      Branch_bound.default_options with
      Branch_bound.time_limit_s = cfg.Config.ilp_time_limit_s;
      node_limit = cfg.Config.ilp_node_limit;
      work_limit =
        (* in portfolio mode the reduced deterministic budget bounds every
           branch & bound in the run — the ILPPAR race (which has the
           heuristic incumbent as a floor) and the Split/Pipe auxiliary
           sweeps (which keep their own greedy seeds); the quality gate in
           CI holds the resulting makespans to the exact ones *)
        (if
           cfg.Config.solver = Config.Portfolio
           && cfg.Config.portfolio_work_limit > 0.
         then cfg.Config.portfolio_work_limit
         else if cfg.Config.ilp_work_limit > 0. then cfg.Config.ilp_work_limit
         else infinity);
      hard_work_limit =
        cfg.Config.solver = Config.Portfolio
        && cfg.Config.portfolio_work_limit > 0.;
      gap_rel = cfg.Config.ilp_gap_rel;
      (* acceleration toggles ride in the options so they salt the
         {!Ilp.Memo} fingerprint: flipping one can never replay a cached
         search made under another toggle set *)
      presolve = cfg.Config.ilp_presolve;
      cut_rounds = (if cfg.Config.ilp_cuts then 4 else 0);
    }
  in
  match prev with
  | Some o when cfg.Config.sweep_warm_start && o.Solver.status = Branch_bound.Optimal
    ->
      (* the previous incumbent is within the gap of its true optimum, so
         true_opt_prev >= o.obj - tol; with the smaller budget the optimum
         can only grow *)
      let tol =
        Float.max base.Branch_bound.gap_abs
          (base.Branch_bound.gap_rel *. Float.abs o.Solver.obj)
      in
      { base with Branch_bound.known_lb = o.Solver.obj -. tol }
  | _ -> base

(** Incumbent trail of the previous solve, usable as starting points when
    the variable layout is unchanged. *)
let chain_starts (cfg : Config.t) (prev : Solver.outcome option) ~num_vars :
    float array list =
  match prev with
  | Some o when cfg.Config.sweep_warm_start ->
      List.filter (fun y -> Array.length y = num_vars) o.Solver.incumbents
  | _ -> []

(** The sweep loop.  [solve ~budget ~prev] solves one instance; the
    driver chains outcomes and returns the kept candidates in discovery
    order (largest budget first). *)
let run ~total_units
    ~(solve :
       budget:int ->
       prev:Solver.outcome option ->
       (Solution.t * Solver.outcome) option) : Solution.t list =
  let acc = ref [] in
  let prev = ref None in
  let i = ref total_units in
  while !i > 1 do
    let budget = !i in
    let solved =
      (* one span per budget step; the warm-start provenance rides along
         (the per-ILP detail lives in the solver's own X event) *)
      Trace.span_k ~cat:"sweep"
        (fun () -> Printf.sprintf "budget=%d" budget)
        (fun () -> solve ~budget ~prev:!prev)
    in
    match solved with
    | Some (r, out) ->
        acc := r :: !acc;
        prev := Some out;
        i := Solution.total_units r - 1
    | None -> i := 0
  done;
  List.rev !acc
