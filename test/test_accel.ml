(* Equivalence tests for the ILP acceleration layer: presolve, cover
   cuts and symmetry rows are all pure search accelerations — they must
   never change WHAT is found, only how fast.

   The ILP-level properties cross-check against the brute-force
   [Exhaustive] reference on the same random model family the core
   branch & bound suite uses; the formulation-level toggles are checked
   end-to-end: the extracted speedup of a small program must be
   identical under every toggle combination. *)

open Ilp

let feq ?(eps = 1e-4) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs b)

(* options exercising the in-solver accelerations (the sweep driver
   enables these when the corresponding Config toggles are on) *)
let cut_options =
  { Branch_bound.default_options with Branch_bound.cut_rounds = 4 }

let accel_options = { cut_options with Branch_bound.presolve = true }

(* ------------------------------------------------------------------ *)
(* Presolve: reduced solve + lift matches exhaustive, and the lifted   *)
(* point satisfies every ORIGINAL constraint (the lifting invariant)   *)
(* ------------------------------------------------------------------ *)

let test_presolve_vs_exhaustive =
  QCheck.Test.make ~count:300 ~name:"presolve+lift matches exhaustive"
    Test_ilp.model_arb (fun m ->
      let ex = Exhaustive.solve m in
      match Presolve.run m with
      | Presolve.Infeasible -> ex.Exhaustive.x = None
      | Presolve.Unchanged -> true
      | Presolve.Reduced r -> (
          let sol = Branch_bound.solve r.Presolve.reduced in
          match (sol.Branch_bound.status, ex.Exhaustive.x) with
          | Branch_bound.Infeasible, None -> true
          | Branch_bound.Optimal, Some _ ->
              let lifted = r.Presolve.lift (Option.get sol.Branch_bound.x) in
              Model.feasible m (fun v -> lifted.(v))
              && feq
                   (Model.objective_value m (fun v -> lifted.(v)))
                   ex.Exhaustive.obj
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Cover cuts: cutting never cuts off the optimum                      *)
(* ------------------------------------------------------------------ *)

let test_cuts_vs_exhaustive =
  QCheck.Test.make ~count:300 ~name:"cover cuts preserve the optimum"
    Test_ilp.model_arb (fun m ->
      let bb = Branch_bound.solve ~options:cut_options m in
      let ex = Exhaustive.solve m in
      match (bb.Branch_bound.status, ex.Exhaustive.x) with
      | Branch_bound.Infeasible, None -> true
      | Branch_bound.Optimal, Some _ ->
          (* the cut solve's point must also be feasible in the caller's
             model: cuts are added to an internal copy only *)
          let y = Option.get bb.Branch_bound.x in
          Model.feasible m (fun v -> y.(v))
          && feq bb.Branch_bound.obj ex.Exhaustive.obj
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The full accelerated path (Solver: presolve + cuts + lifting)       *)
(* ------------------------------------------------------------------ *)

let test_solver_accel_vs_exhaustive =
  QCheck.Test.make ~count:300 ~name:"accelerated solver matches exhaustive"
    Test_ilp.model_arb (fun m ->
      let out = Solver.solve ~options:accel_options m in
      let ex = Exhaustive.solve m in
      match (out.Solver.status, ex.Exhaustive.x) with
      | Branch_bound.Infeasible, None -> true
      | Branch_bound.Optimal, Some _ ->
          let y = Option.get out.Solver.x in
          Model.feasible m (fun v -> y.(v))
          && feq out.Solver.obj ex.Exhaustive.obj
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Formulation-level toggles: identical extracted speedup              *)
(* ------------------------------------------------------------------ *)

(* two independent heavy loops — enough structure for the formulation
   to have real symmetry (several identical worker tasks) while staying
   small enough that every solve reaches proven optimality *)
let src =
  {|
float a[512]; float b[512];
int main() {
  int i;
  for (i = 0; i < 512; i = i + 1) { a[i] = sin(i * 0.01) * 2.0; }
  for (i = 0; i < 512; i = i + 1) { b[i] = cos(i * 0.02) + 1.0; }
  return (int) (a[5] + b[7]);
}
|}

let toggle_cfg ~presolve ~symmetry ~cuts =
  {
    Parcore.Config.fast with
    Parcore.Config.ilp_presolve = presolve;
    ilp_symmetry = symmetry;
    ilp_cuts = cuts;
  }

let speedup_with cfg =
  let out =
    Parcore.Parallelize.run ~cfg ~approach:Parcore.Parallelize.Heterogeneous
      ~platform:Platform.Presets.platform_a_accel src
  in
  Parcore.Parallelize.speedup out

let test_toggles_preserve_speedup () =
  let base = speedup_with (toggle_cfg ~presolve:false ~symmetry:false ~cuts:false) in
  List.iter
    (fun (name, cfg) ->
      let s = speedup_with cfg in
      Alcotest.(check bool)
        (Printf.sprintf "%s: speedup %.6f matches baseline %.6f" name s base)
        true
        (Float.abs (s -. base) <= 1e-9 *. (1. +. Float.abs base)))
    [
      ("all-on", toggle_cfg ~presolve:true ~symmetry:true ~cuts:true);
      ("presolve", toggle_cfg ~presolve:true ~symmetry:false ~cuts:false);
      ("symmetry", toggle_cfg ~presolve:false ~symmetry:true ~cuts:false);
      ("cuts", toggle_cfg ~presolve:false ~symmetry:false ~cuts:true);
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest test_presolve_vs_exhaustive;
    QCheck_alcotest.to_alcotest test_cuts_vs_exhaustive;
    QCheck_alcotest.to_alcotest test_solver_accel_vs_exhaustive;
    Alcotest.test_case "toggles preserve extracted speedup" `Slow
      test_toggles_preserve_speedup;
  ]
