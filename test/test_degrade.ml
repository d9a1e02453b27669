(* Tests for the solver degradation ladder (incumbent -> heuristic point
   -> sequential): when the ILP budget is exhausted (or the simplex core
   faults), parallelization still terminates with a feasible,
   differentially-validated solution tagged with its degradation level —
   and a plan that never fires leaves the result bit-identical to an
   unfaulted run. *)

let cfg = Parcore.Config.fast
let platform = Platform.Presets.platform_a_accel

let bench name =
  match Benchsuite.Suite.find name with
  | Some b -> Benchsuite.Suite.compile b
  | None -> Alcotest.fail ("unknown benchmark " ^ name)

let parallelize prog =
  match
    Parcore.Parallelize.run_program_result ~cfg
      ~approach:Parcore.Parallelize.Heterogeneous ~platform prog
  with
  | Ok out -> out
  | Error e -> Alcotest.fail ("pipeline failed: " ^ Mpsoc_error.to_string e)

(* Differential validation must run with faults disarmed: the solution
   under test was produced under the plan; executing it must not be. *)
let assert_validates prog (out : Parcore.Parallelize.outcome) =
  let _, _, ok =
    Runtime.Exec.validate ~domains:2 prog out.Parcore.Parallelize.htg
      out.Parcore.Parallelize.algo.Parcore.Algorithm.root
  in
  Alcotest.(check bool) "parallel result matches sequential" true ok

let test_budget_exhausted_ladder () =
  let prog = bench "fir_256" in
  let plan =
    {
      Fault.label = "budget";
      rules = [ { Fault.point = "ilp.budget"; at_hit = 1; action = Fault.Exhaust } ];
    }
  in
  let out = Fault.with_plan plan (fun () -> parallelize prog) in
  let algo = out.Parcore.Parallelize.algo in
  let stats = algo.Parcore.Algorithm.stats in
  let engaged =
    Ilp.Stats.ladder_engaged stats || stats.Ilp.Stats.deg_incumbent > 0
  in
  Alcotest.(check bool) "ladder (or incumbent rung) engaged" true engaged;
  assert_validates prog out

let pivot_fault =
  {
    Fault.label = "pivot";
    rules = [ { Fault.point = "simplex.pivot"; at_hit = 1; action = Fault.Raise } ];
  }

let test_simplex_fault_ladder () =
  let prog = bench "fir_256" in
  let out = Fault.with_plan pivot_fault (fun () -> parallelize prog) in
  let algo = out.Parcore.Parallelize.algo in
  (* with the LP core dead from the first pivot, anything beyond the
     sequential candidate must have come off the ladder *)
  Alcotest.(check bool) "ladder engaged" true
    (Ilp.Stats.ladder_engaged algo.Parcore.Algorithm.stats);
  assert_validates prog out

(* boundary_value's first search dies at its first pivot.  The driver
   answers with the heuristic point it took before the search, so no node
   is left with only its sequential candidate. *)
let test_fault_falls_back_to_heuristic () =
  let prog = bench "boundary_value" in
  let out = Fault.with_plan pivot_fault (fun () -> parallelize prog) in
  let stats = out.Parcore.Parallelize.algo.Parcore.Algorithm.stats in
  Alcotest.(check int) "no sequential fallback" 0 stats.Ilp.Stats.deg_seq;
  Alcotest.(check int) "one heuristic fallback" 1 stats.Ilp.Stats.deg_greedy;
  assert_validates prog out

let test_degradation_tags_consistent () =
  let prog = bench "mult_10" in
  let plan =
    {
      Fault.label = "budget";
      rules = [ { Fault.point = "ilp.budget"; at_hit = 1; action = Fault.Exhaust } ];
    }
  in
  let out = Fault.with_plan plan (fun () -> parallelize prog) in
  let root = out.Parcore.Parallelize.algo.Parcore.Algorithm.root in
  let worst = Parcore.Solution.worst_degradation root in
  let rank = Parcore.Solution.degradation_rank worst in
  Alcotest.(check bool) "rank in range" true (rank >= 0 && rank <= 2);
  (* the name map is total over the rungs *)
  List.iter
    (fun d -> ignore (Parcore.Solution.degradation_name d))
    [
      Parcore.Solution.Exact;
      Parcore.Solution.Heuristic;
      Parcore.Solution.Incumbent;
    ]

(* The verdict names the root's real worst tag, also when only the
   ladder makes the run degraded. *)
let test_verdict_names_worst_tag () =
  let result ~solver ~degrade ~fallbacks =
    let root =
      {
        Parcore.Solution.node_id = 0;
        main_class = 0;
        time_us = 1.;
        extra_units = [| 0 |];
        degrade;
        kind = Parcore.Solution.Seq [||];
      }
    in
    let stats = Ilp.Stats.create () in
    stats.Ilp.Stats.deg_greedy <- fallbacks;
    {
      Parcore.Algorithm.root_set = [| [ root ] |];
      root;
      sets = Hashtbl.create 1;
      stats;
      wall_time_s = 0.;
      disk_cache = None;
      solver;
    }
  in
  let verdict ~solver ~degrade ~fallbacks =
    Parcore.Algorithm.degradation (result ~solver ~degrade ~fallbacks)
  in
  let open Parcore in
  Alcotest.(check (option string)) "portfolio, heuristic root, ladder"
    (Some "heuristic (ladder engaged during the sweep)")
    (verdict ~solver:Config.Portfolio ~degrade:Solution.Heuristic ~fallbacks:1);
  Alcotest.(check (option string)) "portfolio, incumbent root, ladder"
    (Some "incumbent (ladder engaged during the sweep)")
    (verdict ~solver:Config.Portfolio ~degrade:Solution.Incumbent ~fallbacks:1);
  Alcotest.(check (option string)) "ilp, exact root, ladder"
    (Some "exact (ladder engaged during the sweep)")
    (verdict ~solver:Config.Ilp ~degrade:Solution.Exact ~fallbacks:1);
  Alcotest.(check (option string)) "ilp, heuristic root" (Some "heuristic")
    (verdict ~solver:Config.Ilp ~degrade:Solution.Heuristic ~fallbacks:0);
  Alcotest.(check (option string)) "portfolio contract met" None
    (verdict ~solver:Config.Portfolio ~degrade:Solution.Incumbent ~fallbacks:0);
  Alcotest.(check bool) "message leads with the tag" true
    (String.starts_with ~prefix:"heuristic — "
       (Algorithm.degradation_message "heuristic"))

let test_unfired_plan_bit_identical () =
  let prog = bench "fir_256" in
  let plain = parallelize prog in
  let plan =
    {
      Fault.label = "never";
      rules =
        [ { Fault.point = "frontend.parse"; at_hit = 999_999; action = Fault.Raise } ];
    }
  in
  let armed = Fault.with_plan plan (fun () -> parallelize prog) in
  let time (o : Parcore.Parallelize.outcome) =
    o.Parcore.Parallelize.algo.Parcore.Algorithm.root.Parcore.Solution.time_us
  in
  Alcotest.(check (float 0.)) "same chosen makespan" (time plain) (time armed);
  Alcotest.(check bool) "same degradation tag" true
    (Parcore.Solution.worst_degradation
       plain.Parcore.Parallelize.algo.Parcore.Algorithm.root
    = Parcore.Solution.worst_degradation
        armed.Parcore.Parallelize.algo.Parcore.Algorithm.root)

let suite =
  [
    Alcotest.test_case "exhausted budget engages the ladder" `Slow
      test_budget_exhausted_ladder;
    Alcotest.test_case "dead simplex degrades but validates" `Slow
      test_simplex_fault_ladder;
    Alcotest.test_case "failed search falls back to the heuristic point" `Slow
      test_fault_falls_back_to_heuristic;
    Alcotest.test_case "degradation tags are consistent" `Slow
      test_degradation_tags_consistent;
    Alcotest.test_case "verdict names the worst tag" `Quick
      test_verdict_names_worst_tag;
    Alcotest.test_case "unfired plan leaves results bit-identical" `Slow
      test_unfired_plan_bit_identical;
  ]
