(* Tests for the solver portfolio: the heuristic engine's schedules must
   always be feasible points of the *exact* ILPPAR model (Eq. 14-16 et
   al. are checked by [Ilp.Model.feasible], not re-derived here) and can
   never beat a proved exact optimum; portfolio work-limit exhaustion
   lands on the Incumbent rung, which is the portfolio contract's
   acceptable tier (exit 0, not 2); and a memo reservation owned by an
   abandoned request is force-released and counted. *)

let platform = Platform.Presets.platform_a_accel

let bench name =
  match Benchsuite.Suite.find name with
  | Some b -> Benchsuite.Suite.compile b
  | None -> Alcotest.fail ("unknown benchmark " ^ name)

let parallelize ~cfg prog =
  match
    Parcore.Parallelize.run_program_result ~cfg
      ~approach:Parcore.Parallelize.Heterogeneous ~platform prog
  with
  | Ok out -> out
  | Error e -> Alcotest.fail ("pipeline failed: " ^ Mpsoc_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Property: heuristic schedules are feasible and never super-optimal  *)
(* ------------------------------------------------------------------ *)

(* Real ILPPAR instances are harvested from a benchmark run: every
   hierarchical node with >= 2 children, together with its children's
   final candidate sets, parameterizes a [Formulation.input].  The
   qcheck generator then picks (node, seq_class, budget) triples. *)
type harvested = {
  h_node : Htg.Node.t;
  h_sets : (int, Parcore.Solution.set) Hashtbl.t;
}

let harvest =
  lazy
    (let prog = bench "mult_10" in
     let out = parallelize ~cfg:Parcore.Config.fast prog in
     let sets = out.Parcore.Parallelize.algo.Parcore.Algorithm.sets in
     let nodes = ref [] in
     let rec walk (n : Htg.Node.t) =
       if Array.length n.Htg.Node.children >= 2 then
         nodes := { h_node = n; h_sets = sets } :: !nodes;
       Array.iter walk n.Htg.Node.children
     in
     walk out.Parcore.Parallelize.htg;
     !nodes)

let input_of h ~seq_class ~budget =
  {
    Parcore.Formulation.node = h.h_node;
    child_sets =
      Array.map
        (fun (c : Htg.Node.t) -> Hashtbl.find h.h_sets c.Htg.Node.id)
        h.h_node.Htg.Node.children;
    pf = platform;
    seq_class;
    budget;
    cfg = Parcore.Config.fast;
  }

(* Exact reference solve of one harvested instance, once per (node,
   seq_class, budget): the generator redraws the same triple often, and
   a search that cannot prove optimality runs to the solver's default
   time limit.  The exact engine's own accelerations (presolve, root
   cover cuts) are on, so more instances end with a proved optimum; the
   gap tolerances stay at the solver defaults, so "optimal" keeps its
   1e-6 meaning. *)
let exact_solves = Hashtbl.create 16

let exact_reference h ~seq_class ~budget (input : Parcore.Formulation.input)
    (inst : Parcore.Formulation.instance) =
  let key = (h.h_node.Htg.Node.id, seq_class, budget) in
  match Hashtbl.find_opt exact_solves key with
  | Some out -> out
  | None ->
      let cfg = input.Parcore.Formulation.cfg in
      let out =
        Ilp.Solver.solve
          ~options:
            {
              Ilp.Branch_bound.default_options with
              Ilp.Branch_bound.presolve = cfg.Parcore.Config.ilp_presolve;
              cut_rounds = (if cfg.Parcore.Config.ilp_cuts then 4 else 0);
            }
          ~warm_start:(Parcore.Formulation.hierarchical_warm_start input inst)
          inst.Parcore.Formulation.model
      in
      Hashtbl.add exact_solves key out;
      out

let test_heuristic_feasible_never_beats_exact =
  QCheck.Test.make ~count:40
    ~name:"heuristic point feasible, never beats exact optimum"
    QCheck.(
      triple (int_bound 1000) (int_bound 1000) (int_bound 1000))
    (fun (ni, ci, bi) ->
      let nodes = Lazy.force harvest in
      if nodes = [] then QCheck.Test.fail_report "no hierarchical nodes";
      let h = List.nth nodes (ni mod List.length nodes) in
      let seq_class = ci mod Platform.Desc.num_classes platform in
      let budget = 2 + (bi mod (Platform.Desc.total_units platform - 1)) in
      let input = input_of h ~seq_class ~budget in
      match Parcore.Formulation.build input with
      | None -> true (* degenerate (node, budget): nothing to check *)
      | Some inst -> (
          match Parcore.Heuristics.best_point input inst with
          | None -> true (* heuristic found nothing: allowed, never wrong *)
          | Some (pt, obj) ->
              let model = inst.Parcore.Formulation.model in
              if not (Ilp.Model.feasible model (fun v -> pt.(v))) then
                QCheck.Test.fail_report
                  "heuristic point violates the exact model";
              let obj' = Ilp.Model.objective_value model (fun v -> pt.(v)) in
              if Float.abs (obj -. obj') > 1e-6 *. (1. +. Float.abs obj) then
                QCheck.Test.fail_reportf
                  "reported objective %.9g <> model objective %.9g" obj obj';
              (* exact optimum of the same instance; only a *proved*
                 optimum bounds the heuristic from below *)
              let out = exact_reference h ~seq_class ~budget input inst in
              (match out.Ilp.Solver.status with
              | Ilp.Branch_bound.Optimal ->
                  if obj < out.Ilp.Solver.obj -. 1e-6 then
                    QCheck.Test.fail_reportf
                      "heuristic %.9g beats proved optimum %.9g" obj
                      out.Ilp.Solver.obj
              | _ -> ());
              true))

(* ------------------------------------------------------------------ *)
(* Degradation-ladder interaction                                      *)
(* ------------------------------------------------------------------ *)

(* Exhausting the portfolio's reduced work budget must return the
   heuristic incumbent (Incumbent or better tag), which is within the
   portfolio contract: [Algorithm.degradation] = None, i.e. exit 0. *)
let test_portfolio_exhaustion_within_contract () =
  let cfg =
    {
      Parcore.Config.fast with
      Parcore.Config.solver = Parcore.Config.Portfolio;
      portfolio_work_limit = 1.;
      (* so small every branch & bound aborts immediately *)
    }
  in
  let out = parallelize ~cfg (bench "fir_256") in
  let algo = out.Parcore.Parallelize.algo in
  let worst =
    Parcore.Solution.worst_degradation algo.Parcore.Algorithm.root
  in
  Alcotest.(check bool)
    "root tag at Incumbent tier or better" true
    (Parcore.Solution.degradation_rank worst
    <= Parcore.Solution.degradation_rank Parcore.Solution.Incumbent);
  Alcotest.(check (option string))
    "portfolio contract met (exit 0)" None
    (Parcore.Algorithm.degradation algo)

(* In heuristic mode the Heuristic tag itself is the contract: no branch
   & bound runs at all, and the result is not reported degraded. *)
let test_heuristic_mode_contract () =
  let cfg =
    {
      Parcore.Config.fast with
      Parcore.Config.solver = Parcore.Config.Heuristic;
    }
  in
  let out = parallelize ~cfg (bench "mult_10") in
  let algo = out.Parcore.Parallelize.algo in
  Alcotest.(check int)
    "no exact solves in heuristic mode" 0
    algo.Parcore.Algorithm.stats.Ilp.Stats.ilps;
  Alcotest.(check bool)
    "heuristic engine ran" true
    (algo.Parcore.Algorithm.stats.Ilp.Stats.heuristic_solves > 0);
  Alcotest.(check (option string))
    "heuristic contract met (exit 0)" None
    (Parcore.Algorithm.degradation algo)

(* ------------------------------------------------------------------ *)
(* Memo reservation cancellation (abandoned request)                   *)
(* ------------------------------------------------------------------ *)

let test_cancel_owned_releases_reservation () =
  let m = Ilp.Memo.create () in
  let key = String.make 16 'k' in
  (* reserve under a request tag, as a serve worker would *)
  (match Trace.with_tag "req-77" (fun () -> Ilp.Memo.find_or_reserve m key) with
  | `Reserved -> ()
  | `Hit _ -> Alcotest.fail "fresh key cannot hit");
  (* a different request's reservations are left alone *)
  Alcotest.(check int)
    "other request cancels nothing" 0
    (Ilp.Memo.cancel_owned m ~req:"req-42");
  Alcotest.(check int)
    "abandoned request's reservation released" 1
    (Ilp.Memo.cancel_owned m ~req:"req-77");
  Alcotest.(check int) "cancellation counted" 1 (Ilp.Memo.cancelled_count m);
  (* the key is solvable again: the next requester re-reserves *)
  (match Ilp.Memo.find_or_reserve m key with
  | `Reserved -> ()
  | `Hit _ -> Alcotest.fail "cancelled reservation must not replay");
  Ilp.Memo.cancel m key

let suite =
  [
    QCheck_alcotest.to_alcotest test_heuristic_feasible_never_beats_exact;
    Alcotest.test_case "portfolio work-limit exhaustion stays exit 0" `Slow
      test_portfolio_exhaustion_within_contract;
    Alcotest.test_case "heuristic mode runs zero ILPs, exit 0" `Slow
      test_heuristic_mode_contract;
    Alcotest.test_case "cancel_owned releases an abandoned reservation" `Quick
      test_cancel_owned_releases_reservation;
  ]
