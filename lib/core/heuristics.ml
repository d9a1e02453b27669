(** The list scheduler of the solver portfolio ({!Portfolio}): its best
    point answers [--solver=heuristic], starts branch & bound under the
    exact engines, and replaces a failed search.

    Produces good-but-unproven schedules for the same ILPPAR subproblem
    {!Formulation.build} models, without running branch & bound: a family
    of AMTHA-style balanced list schedules (one per task count) refined
    by a small seeded genetic algorithm, in the spirit of evolutionary
    mapping heuristics for heterogeneous MPSoCs.

    Every schedule is expressed as a {!Solution.par} over contiguous
    chunks of the topological child order — so the paper's cycle-freedom
    constraint (Eq. 10) holds by construction — bridged to a full model
    point with {!Formulation.par_point} and accepted only if
    [Ilp.Model.feasible] holds on the {e exact} model.  Quality is thus
    measured with the exact objective; only optimality is forgone.

    Determinism: candidate generation is pure, the GA uses a private
    linear-congruential generator seeded from the subproblem shape (never
    wall clock or [Stdlib.Random]), and memoized answers are single-flight
    — results are bit-identical at any worker count. *)

open Ilp

(* ---- deterministic pseudo-randomness (Java-style 48-bit LCG) ---- *)

let mask48 = (1 lsl 48) - 1

let lcg_seed ~node_id ~seq_class ~budget ~ntasks : int ref =
  ref
    ((node_id * 2654435761) lxor (seq_class * 40503)
     lxor (budget * 65599) lxor (ntasks * 97) lxor 0x5DEECE66D
    land mask48)

let lcg_next st =
  st := ((!st * 0x5DEECE66D) + 0xB) land mask48;
  !st

(** Uniform-ish int in [0, n); 0 when [n <= 0]. *)
let rand_int st n = if n <= 0 then 0 else lcg_next st lsr 16 mod n

(* ---- schedules as genomes ---- *)

(** A fork/join schedule over contiguous chunks of the child order:
    chunk [j] holds children [cut.(j-1) .. cut.(j) - 1] (with implicit
    outer boundaries 0 and [k]); [cls.(j)] is chunk [j]'s processor
    class, [cls.(0)] always the sweep's main class.  [cut] is strictly
    increasing, so every chunk is non-empty and task ids are dense. *)
type genome = { cut : int array; cls : int array }

let assignment_of_genome ~k (g : genome) : int array =
  let m = Array.length g.cls in
  let a = Array.make k 0 in
  let j = ref 0 in
  for n = 0 to k - 1 do
    while !j < m - 1 && n >= g.cut.(!j) do
      incr j
    done;
    a.(n) <- !j
  done;
  a

(** Chunk boundaries balancing the children's sequential cost on the
    main class, clamped so every chunk keeps at least one child. *)
let balanced_cut ~k ~m (cost : int -> float) : int array =
  let pre = Array.make (k + 1) 0. in
  for n = 0 to k - 1 do
    pre.(n + 1) <- pre.(n) +. cost n
  done;
  let grand = pre.(k) in
  let cut = Array.make (m - 1) 0 in
  let prev = ref 0 in
  for j = 1 to m - 1 do
    let target = float_of_int j *. grand /. float_of_int m in
    let i = ref (!prev + 1) in
    while !i < k - (m - 1 - j) && pre.(!i) < target do
      incr i
    done;
    let i = max (!prev + 1) (min !i (k - (m - j))) in
    cut.(j - 1) <- i;
    prev := i
  done;
  cut

(** Classes for [m] chunks: the main chunk keeps [seq_class]; the others
    greedily take the fastest classes with free units (deterministic
    tie-break on the class index).  [None] when the platform cannot host
    [m] tasks at all. *)
let greedy_classes (pf : Platform.Desc.t) ~seq_class ~m : int array option =
  let nclasses = Platform.Desc.num_classes pf in
  let avail = Array.copy (Platform.Desc.units_per_class pf) in
  avail.(seq_class) <- avail.(seq_class) - 1;
  let order =
    List.init nclasses Fun.id
    |> List.sort (fun a b ->
           match
             compare
               (Platform.Proc_class.speed (Platform.Desc.proc_class pf b))
               (Platform.Proc_class.speed (Platform.Desc.proc_class pf a))
           with
           | 0 -> compare a b
           | c -> c)
  in
  let cls = Array.make m seq_class in
  let ok = ref true in
  for t = 1 to m - 1 do
    match List.find_opt (fun c -> avail.(c) > 0) order with
    | Some c ->
        avail.(c) <- avail.(c) - 1;
        cls.(t) <- c
    | None -> ok := false
  done;
  if !ok then Some cls else None

(* ---- candidate selection under the unit budgets ---- *)

(** Chosen candidate per child for a bare (assignment, class) schedule:
    start from every child's sequential candidate of its task's class and
    greedily upgrade, child by child, to the fastest candidate that still
    fits the per-class unit budgets and the sweep's global budget under
    Eq. 14's max-per-task inner-usage semantics.  [None] when the bare
    schedule already overcommits a class (the GA may propose that). *)
let choose_children (inp : Formulation.input) (inst : Formulation.instance)
    ~(assignment : int array) ~(task_class : int array) :
    Solution.t array option =
  let k = Array.length assignment in
  let nclasses = Platform.Desc.num_classes inp.pf in
  let units = Platform.Desc.units_per_class inp.pf in
  let ntasks = Array.length task_class in
  let class_count = Array.make nclasses 0 in
  Array.iter
    (fun c -> if c >= 0 then class_count.(c) <- class_count.(c) + 1)
    task_class;
  let base_ok = ref (ntasks <= inp.budget) in
  Array.iteri
    (fun c cnt -> if cnt > units.(c) then base_ok := false)
    class_count;
  if not !base_ok then None
  else begin
    let inner = Array.make_matrix ntasks nclasses 0 in
    let col_inner = Array.make nclasses 0 in
    let total_inner = ref 0 in
    let choice =
      Array.init k (fun n ->
          Solution.seq_of inp.child_sets.(n) task_class.(assignment.(n)))
    in
    for n = 0 to k - 1 do
      let t = assignment.(n) in
      let cls = task_class.(t) in
      let arr = inst.Formulation.cands.(n).(cls) in
      let best = ref None in
      Array.iter
        (fun (cand : Solution.t) ->
          let fits = ref true in
          let extra = ref 0 in
          for c = 0 to nclasses - 1 do
            let d = max 0 (cand.Solution.extra_units.(c) - inner.(t).(c)) in
            extra := !extra + d;
            if class_count.(c) + col_inner.(c) + d > units.(c) then
              fits := false
          done;
          if ntasks + !total_inner + !extra > inp.budget then fits := false;
          if
            !fits
            && (match !best with
               | None -> true
               | Some (b : Solution.t) ->
                   cand.Solution.time_us < b.Solution.time_us)
          then best := Some cand)
        arr;
      match !best with
      | Some cand ->
          choice.(n) <- cand;
          for c = 0 to nclasses - 1 do
            let d = max 0 (cand.Solution.extra_units.(c) - inner.(t).(c)) in
            if d > 0 then begin
              inner.(t).(c) <- cand.Solution.extra_units.(c);
              col_inner.(c) <- col_inner.(c) + d;
              total_inner := !total_inner + d
            end
          done
      | None -> ()
    done;
    Some choice
  end

(* ---- evaluation on the exact model ---- *)

(** Evaluate a genome as a full model point: exact objective on success,
    [None] when the schedule is rejected (class overuse, or the model's
    own feasibility check fails — e.g. a conflict pair split apart). *)
let eval_genome (inp : Formulation.input) (inst : Formulation.instance)
    (g : genome) : (float array * float) option =
  let k = Array.length inp.node.Htg.Node.children in
  let assignment = assignment_of_genome ~k g in
  match choose_children inp inst ~assignment ~task_class:g.cls with
  | None -> None
  | Some child_choice -> (
      let pk =
        {
          Solution.assignment;
          task_class = g.cls;
          child_choice;
          par_time_breakdown = Solution.no_breakdown;
        }
      in
      match Formulation.par_point inp inst pk with
      | None -> None
      | Some w ->
          if Model.feasible inst.Formulation.model (fun v -> w.(v)) then
            Some (w, Model.objective_value inst.Formulation.model (fun v -> w.(v)))
          else None)

(* ---- the GA refiner ---- *)

let mutate st ~k ~nclasses (g : genome) : genome =
  let m = Array.length g.cls in
  let g' = { cut = Array.copy g.cut; cls = Array.copy g.cls } in
  (match rand_int st 3 with
  | 0 when m >= 2 ->
      (* move one chunk boundary by one child *)
      let j = rand_int st (m - 1) in
      let lo = if j = 0 then 1 else g'.cut.(j - 1) + 1 in
      let hi = if j = m - 2 then k - 1 else g'.cut.(j + 1) - 1 in
      let v = g'.cut.(j) + if rand_int st 2 = 0 then -1 else 1 in
      if v >= lo && v <= hi then g'.cut.(j) <- v
  | 1 when m >= 2 ->
      (* reassign one extra chunk's class (eval rejects overuse) *)
      let t = 1 + rand_int st (m - 1) in
      g'.cls.(t) <- rand_int st nclasses
  | _ ->
      if m >= 3 then begin
        (* swap the classes of two extra chunks *)
        let a = 1 + rand_int st (m - 1) and b = 1 + rand_int st (m - 1) in
        let tmp = g'.cls.(a) in
        g'.cls.(a) <- g'.cls.(b);
        g'.cls.(b) <- tmp
      end);
  g'

let crossover st ~k (a : genome) (b : genome) : genome option =
  let m = Array.length a.cls in
  if Array.length b.cls <> m || m < 2 then None
  else begin
    let pt = 1 + rand_int st (m - 1) in
    let cls = Array.init m (fun i -> if i < pt then a.cls.(i) else b.cls.(i)) in
    let cut =
      Array.init (m - 1) (fun j -> if j < pt - 1 then a.cut.(j) else b.cut.(j))
    in
    (* repair monotonicity; reject if the tail no longer fits *)
    let ok = ref true in
    for j = 0 to m - 2 do
      let lo = if j = 0 then 1 else cut.(j - 1) + 1 in
      if cut.(j) < lo then cut.(j) <- lo;
      if cut.(j) > k - (m - 1 - j) then ok := false
    done;
    if !ok then Some { cut; cls } else None
  end

(* total order on evaluated genomes: objective first, then the genome
   itself — ties never depend on arrival order, keeping the GA
   deterministic *)
let cmp_eval (g1, (_, o1)) (g2, (_, o2)) =
  match compare (o1 : float) o2 with 0 -> compare g1 g2 | c -> c

let ga_generations = 6
let ga_elite = 4
let ga_offspring_per_elite = 2

let refine st (inp : Formulation.input) (inst : Formulation.instance)
    ~(pool : (genome * (float array * float)) list) :
    (genome * (float array * float)) list =
  let k = Array.length inp.node.Htg.Node.children in
  let nclasses = Platform.Desc.num_classes inp.pf in
  let seen = Hashtbl.create 64 in
  List.iter (fun (g, _) -> Hashtbl.replace seen g ()) pool;
  let pop = ref (List.sort cmp_eval pool) in
  for _gen = 1 to ga_generations do
    let elite = List.filteri (fun i _ -> i < ga_elite) !pop in
    let proposals =
      List.concat_map
        (fun (g, _) ->
          List.init ga_offspring_per_elite (fun _ ->
              mutate st ~k ~nclasses g))
        elite
      @
      match elite with
      | (g1, _) :: (g2, _) :: _ -> (
          match crossover st ~k g1 g2 with Some g -> [ g ] | None -> [])
      | _ -> []
    in
    let fresh =
      List.filter_map
        (fun g ->
          if Hashtbl.mem seen g then None
          else begin
            Hashtbl.replace seen g ();
            Option.map (fun e -> (g, e)) (eval_genome inp inst g)
          end)
        proposals
    in
    if fresh <> [] then pop := List.sort cmp_eval (elite @ fresh)
  done;
  !pop

(* ---- the engine ---- *)

let compute (inp : Formulation.input) (inst : Formulation.instance) :
    (float array * float) option =
  let k = Array.length inp.node.Htg.Node.children in
  let cost_of n =
    (Solution.seq_of inp.child_sets.(n) inp.seq_class).Solution.time_us
  in
  (* one balanced list schedule per feasible task count *)
  let pool =
    List.filter_map
      (fun m ->
        match greedy_classes inp.pf ~seq_class:inp.seq_class ~m with
        | None -> None
        | Some cls ->
            let g = { cut = balanced_cut ~k ~m cost_of; cls } in
            Option.map (fun e -> (g, e)) (eval_genome inp inst g))
      (List.init (max 0 (inst.Formulation.ntasks - 1)) (fun i -> i + 2))
  in
  let st =
    lcg_seed ~node_id:inp.node.Htg.Node.id ~seq_class:inp.seq_class
      ~budget:inp.budget ~ntasks:inst.Formulation.ntasks
  in
  let pool = if pool = [] then pool else refine st inp inst ~pool in
  (* the sequential warm start is the always-feasible baseline: the
     engine can be no worse than everything-in-the-main-task *)
  let warm = Formulation.hierarchical_warm_start inp inst in
  let warm_eval =
    if Model.feasible inst.Formulation.model (fun v -> warm.(v)) then
      Some
        (warm, Model.objective_value inst.Formulation.model (fun v -> warm.(v)))
    else None
  in
  let best =
    List.fold_left
      (fun acc (_, (w, o)) ->
        match acc with
        | Some (_, bo) when bo <= o -> acc
        | _ -> Some (w, o))
      warm_eval pool
  in
  best

(** Best heuristic point of one built instance: the model point and its
    exact-model objective.  Memoized (under the ["heuristic"] engine
    fingerprint, so it can never replay as an exact answer) and recorded
    in [stats] as a heuristic solve or a cache hit. *)
let best_point ?stats ?cache (inp : Formulation.input)
    (inst : Formulation.instance) : (float array * float) option =
  let model = inst.Formulation.model in
  let t0 = Clock.now_s () in
  let result, cached =
    match cache with
    | None -> (compute inp inst, false)
    | Some c -> (
        let key = Memo.fingerprint ~engine:"heuristic" model in
        match Memo.find_or_reserve ~engine:"heuristic" c key with
        | `Hit sol -> (
            ( (match sol.Branch_bound.x with
              (* cached points are shared: copy before handing the array
                 to branch & bound as a start *)
              | Some w -> Some (Array.copy w, sol.Branch_bound.obj)
              | None -> None),
              true ))
        | `Reserved -> (
            match compute inp inst with
            | Some (w, obj) ->
                Memo.fill ~engine:"heuristic" c key
                  {
                    Branch_bound.status = Branch_bound.Feasible;
                    x = Some w;
                    obj;
                    nodes = 0;
                    pivots = 0;
                    cuts = 0;
                    incumbents = [];
                  };
                (Some (Array.copy w, obj), false)
            | None ->
                Memo.fill ~engine:"heuristic" c key
                  {
                    Branch_bound.status = Branch_bound.Infeasible;
                    x = None;
                    obj = nan;
                    nodes = 0;
                    pivots = 0;
                    cuts = 0;
                    incumbents = [];
                  };
                (None, false)
            | exception e ->
                Memo.cancel c key;
                raise e))
  in
  let time_s = Clock.now_s () -. t0 in
  (match stats with
  | Some s ->
      if cached then Stats.record_cache_hit s
      else Stats.record_heuristic s ~time_s
  | None -> ());
  if Trace.enabled () then
    Trace.complete ~cat:"ilp" ~t0_s:t0 (Model.name model)
      ~args:
        [
          ("engine", Trace.Str "heuristic");
          ("vars", Trace.Int (Model.num_vars model));
          ("constrs", Trace.Int (Model.num_constraints model));
          ("status", Trace.Str (if result = None then "infeasible" else "feasible"));
          ("cached", Trace.Bool cached);
        ];
  result
