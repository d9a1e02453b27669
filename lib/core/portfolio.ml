(** The ILPPAR solve driver: answers each (node, class, budget) call of
    Algorithm 1 under the configured engine ([Config.solver]).

    Every engine builds the instance and takes the heuristic point
    ({!Heuristics.best_point}, memoized):

    - [Heuristic]: that point is the answer, tagged {!Solution.Heuristic}
      — no branch & bound anywhere;
    - [Ilp] and [Portfolio]: branch & bound starts from the sequential
      warm start, the sweep's chained incumbent trail and the heuristic
      point, under the budget {!Sweep.chain_options} picks for the engine
      (the exact budget, or portfolio's reduced deterministic one).  The
      better of the branch & bound answer and the heuristic point wins;
      the race (winning engine, quality gap) is recorded in {!Ilp.Stats}
      and as a ["portfolio.race"] trace instant.

    Degradation ladder: a proved optimum is tagged [Exact] and a best
    incumbent at a limit [Incumbent].  A search that ends with no
    incumbent ([Limit]) or hits an injected fault answers with the
    heuristic point already in hand, tagged [Heuristic]; with no
    heuristic point either, the node keeps only its sequential candidate.
    Each rung reached is counted in {!Ilp.Stats} and traced as a
    ["degrade"] instant.

    Everything downstream (budget sweep, candidate pruning) is
    engine-agnostic; determinism at any [--jobs] follows from the
    engines' own determinism. *)

open Ilp

(* Race bookkeeping: the exact engine "won" only if it strictly improved
   on the heuristic incumbent (ties go to the heuristic — its answer
   survived the exact search). *)
let record_race ?stats (inp : Formulation.input) ~heur_obj ~exact_obj =
  let eps = 1e-9 in
  let exact_won = exact_obj < heur_obj -. eps in
  let gap =
    if exact_won && exact_obj > eps then (heur_obj -. exact_obj) /. exact_obj
    else 0.
  in
  (match stats with
  | Some s ->
      Stats.record_race s
        ~winner:(if exact_won then `Exact else `Heuristic)
        ~quality_gap:gap
  | None -> ());
  if Trace.enabled () then
    Trace.instant ~cat:"ilp" "portfolio.race"
      ~args:
        [
          ("node", Trace.Int inp.Formulation.node.Htg.Node.id);
          ("winner", Trace.Str (if exact_won then "exact" else "heuristic"));
          ("heur_obj", Trace.Float heur_obj);
          ("exact_obj", Trace.Float exact_obj);
          ("quality_gap", Trace.Float gap);
        ]

let record_rung ?stats (inp : Formulation.input) rung =
  (match stats with Some s -> Stats.record_degraded s rung | None -> ());
  if Trace.enabled () then
    Trace.instant ~cat:"ilp" "degrade"
      ~args:
        [
          ("node", Trace.Int inp.Formulation.node.Htg.Node.id);
          ( "rung",
            Trace.Str
              (match rung with
              | `Incumbent -> "incumbent"
              | `Heuristic -> "heuristic"
              | `Sequential -> "seq_fallback") );
        ]

(* A heuristic point as a candidate tagged [Heuristic], with a fabricated
   [Feasible] outcome so the sweep's budget chaining treats it like an
   unproved incumbent. *)
let heuristic_candidate (inp : Formulation.input) (inst : Formulation.instance)
    (w, obj) : Solution.t * Solver.outcome =
  ( { (Formulation.extract inp inst w) with Solution.degrade = Solution.Heuristic },
    {
      Solver.status = Branch_bound.Feasible;
      x = Some w;
      obj;
      nodes = 0;
      time_s = 0.;
      incumbents = [];
    } )

let solve_ext ?stats ?cache ?prev (inp : Formulation.input) :
    (Solution.t * Solver.outcome) option =
  match Formulation.build inp with
  | None -> None
  | Some inst -> (
      let cfg = inp.Formulation.cfg in
      let heur = Heuristics.best_point ?stats ?cache inp inst in
      match cfg.Config.solver with
      | Config.Heuristic -> Option.map (heuristic_candidate inp inst) heur
      | Config.Ilp | Config.Portfolio -> (
          let model = inst.Formulation.model in
          (* the heuristic point enters the race last, after the chained
             trail *)
          let extra_starts =
            Sweep.chain_starts cfg prev ~num_vars:(Model.num_vars model)
            @ match heur with Some (w, _) -> [ w ] | None -> []
          in
          let fallback () =
            match heur with
            | Some h ->
                record_rung ?stats inp `Heuristic;
                Some (heuristic_candidate inp inst h)
            | None ->
                record_rung ?stats inp `Sequential;
                None
          in
          match
            Solver.solve
              ~options:(Sweep.chain_options cfg prev)
              ~warm_start:(Formulation.hierarchical_warm_start inp inst)
              ~extra_starts ?cache ?stats model
          with
          | exception Fault.Injected _ -> fallback ()
          | { Solver.status = Branch_bound.Limit; _ } -> fallback ()
          | {
              Solver.status = (Branch_bound.Optimal | Branch_bound.Feasible) as status;
              x = Some x;
              obj;
              _;
            } as out -> (
              let degrade =
                if status = Branch_bound.Optimal then Solution.Exact
                else begin
                  record_rung ?stats inp `Incumbent;
                  Solution.Incumbent
                end
              in
              let r = { (Formulation.extract inp inst x) with Solution.degrade } in
              match heur with
              | None -> Some (r, out)
              | Some ((_, hobj) as h) ->
                  record_race ?stats inp ~heur_obj:hobj ~exact_obj:obj;
                  if r.Solution.time_us > hobj +. 1e-9 then
                    Some (heuristic_candidate inp inst h)
                  else Some (r, out))
          | _ -> (* infeasible or unbounded *) None))

(** The full decreasing-budget sweep for one (node, class) under the
    configured engine; candidates in discovery order. *)
let sweep ?stats ?cache ~total_units (inp : Formulation.input) :
    Solution.t list =
  Sweep.run ~total_units ~solve:(fun ~budget ~prev ->
      solve_ext ?stats ?cache ?prev { inp with Formulation.budget })
