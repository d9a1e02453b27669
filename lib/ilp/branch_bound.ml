(** Branch & bound MILP solver over {!Simplex} LP relaxations.

    Best-first search on the relaxation bound, branching on the most
    fractional integer variable; a round-to-nearest primal heuristic and an
    optional caller-supplied warm start seed the incumbent so that node
    and time limits still return a feasible solution ([Feasible] status)
    instead of failing. *)

type status =
  | Optimal  (** proved optimal within tolerance *)
  | Feasible  (** limit hit; best incumbent returned *)
  | Infeasible
  | Unbounded
  | Limit
      (** a work/node/time limit ran out before any incumbent was found:
          the model may still be feasible, the search just could not tell.
          Distinct from [Infeasible] so callers can engage degradation
          fallbacks instead of discarding the subproblem. *)

type solution = {
  status : status;
  x : float array option;
  obj : float;  (** objective of [x] in the model's own sense *)
  nodes : int;  (** branch & bound nodes processed *)
  pivots : int;  (** simplex pivots across all LP relaxations *)
  cuts : int;  (** cover cuts added by the root rounds *)
  incumbents : float array list;
      (** trail of improving incumbents found during the search, most
          recent (= best) first, capped; used to warm-start related
          solves (e.g. the next processor budget in a sweep) *)
}

type options = {
  time_limit_s : float;
  node_limit : int;
  work_limit : float;
  known_lb : float;
  gap_abs : float;
  gap_rel : float;
  int_tol : float;
  presolve : bool;
      (** acted on by {!Solver.solve}, which runs {!Presolve} and lifts;
          carried here so the toggle salts {!Memo} fingerprints *)
  cut_rounds : int;  (** rounds of root cover-cut separation (0 = off) *)
  hard_work_limit : bool;
      (** enforce [work_limit] {e inside} LP solves too: a relaxation
          whose pivots would overshoot the remaining budget is aborted
          mid-solve ({!Simplex.Budget_exhausted}) and the search stops
          with the current incumbent.  Off (the historical behavior, where
          a single large LP can overshoot the budget) except under the
          portfolio engine, whose reduced budget is smaller than one hard
          root LP. *)
}

let default_options =
  {
    time_limit_s = 30.;
    node_limit = 200_000;
    work_limit = infinity;
    known_lb = neg_infinity;
    gap_abs = 1e-6;
    gap_rel = 1e-9;
    int_tol = 1e-6;
    (* acceleration is off by default at this layer: direct callers (and
       existing tests) get the historical search; [Sweep] switches the
       toggles on from [Config] *)
    presolve = false;
    cut_rounds = 0;
    hard_work_limit = false;
  }

(* how many improving incumbents to keep for the caller *)
let max_incumbents = 4

type node = { nlb : float array; nub : float array; parent_bound : float }

(* simple pairing-heap-free priority queue: sorted insertion would be
   O(n); use a binary heap on arrays *)
module Heap = struct
  type 'a t = { mutable data : (float * 'a) array; mutable size : int }

  let create () = { data = Array.make 64 (0., Obj.magic 0); size = 0 }

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h key v =
    if h.size = Array.length h.data then begin
      let d = Array.make (2 * h.size) h.data.(0) in
      Array.blit h.data 0 d 0 h.size;
      h.data <- d
    end;
    h.data.(h.size) <- (key, v);
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then
          smallest := l;
        if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then
          smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

let is_int_kind = function Model.Bool | Model.Int -> true | Model.Cont -> false

(** Fractional integer variable to branch on: highest branch priority
    first, most fractional within a priority level. *)
let fractional_var model opts (x : float array) =
  let best = ref (-1) in
  let best_prio = ref min_int in
  let best_frac = ref 0. in
  for v = 0 to Model.num_vars model - 1 do
    let info = Model.var_info model v in
    if is_int_kind info.Model.kind then begin
      let f = Float.abs (x.(v) -. Float.round x.(v)) in
      if f > opts.int_tol then begin
        let prio = info.Model.priority in
        if
          prio > !best_prio || (prio = !best_prio && f > !best_frac)
        then begin
          best := v;
          best_prio := prio;
          best_frac := f
        end
      end
    end
  done;
  if !best >= 0 then Some !best else None

(** Round integer variables to nearest and re-check feasibility — a cheap
    primal heuristic run on every LP solution. *)
let rounded_candidate model opts (x : float array) =
  let n = Model.num_vars model in
  let y = Array.copy x in
  for v = 0 to n - 1 do
    if is_int_kind (Model.var_info model v).Model.kind then
      y.(v) <- Float.round y.(v)
  done;
  ignore opts;
  if Model.feasible model (fun v -> y.(v)) then Some y else None

(** Fix-and-solve: freeze the integers at their rounded values and
    re-optimize the continuous rest with one LP.  More expensive than
    {!rounded_candidate} but finds feasible completions the plain rounding
    misses (e.g. when big-M continuous variables must move). *)
let fix_and_solve model (node_lb : float array) (node_ub : float array)
    (x : float array) ~work ~pivots ~work_budget =
  let n = Model.num_vars model in
  let lb = Array.copy node_lb and ub = Array.copy node_ub in
  let ok = ref true in
  for v = 0 to n - 1 do
    if is_int_kind (Model.var_info model v).Model.kind then begin
      let r = Float.round x.(v) in
      if r < node_lb.(v) -. 1e-9 || r > node_ub.(v) +. 1e-9 then ok := false
      else begin
        lb.(v) <- r;
        ub.(v) <- r
      end
    end
  done;
  if not !ok then None
  else begin
    let res, w, p = Simplex.solve_stats ~lb ~ub ~work_budget model in
    work := !work +. w;
    pivots := !pivots + p;
    match res with
    | Simplex.Optimal { x = y; _ } ->
        let y = Array.copy y in
        for v = 0 to n - 1 do
          if is_int_kind (Model.var_info model v).Model.kind then
            y.(v) <- Float.round y.(v)
        done;
        if Model.feasible model (fun v -> y.(v)) then Some y else None
    | Simplex.Infeasible | Simplex.Unbounded | Simplex.Stalled -> None
  end

let solve ?(options = default_options) ?warm_start ?(extra_starts = [])
    (model : Model.t) : solution =
  let use_cuts = options.cut_rounds > 0 in
  (* cuts are appended to a private copy so the caller's model (which
     [Solver] fingerprints for the memo cache) is never mutated *)
  let model = if use_cuts then Model.copy model else model in
  let n = Model.num_vars model in
  let sense = model.Model.obj_sense in
  (* internal objective: always minimize *)
  let key_of_obj o = match sense with Model.Minimize -> o | Model.Maximize -> -.o in
  let start = Clock.now_s () in
  let work = ref 0. in
  let pivots = ref 0 in
  let cuts_added = ref 0 in
  let seen_cuts = if use_cuts then Hashtbl.create 32 else Hashtbl.create 0 in
  let incumbent = ref None in
  let incumbent_key = ref infinity in
  let incumbents = ref [] in
  let consider_incumbent y =
    let o = Model.objective_value model (fun v -> y.(v)) in
    let k = key_of_obj o in
    if k < !incumbent_key -. 1e-12 then begin
      incumbent_key := k;
      incumbent := Some (y, o);
      incumbents :=
        y :: List.filteri (fun i _ -> i < max_incumbents - 1) !incumbents
    end
  in
  let seed y =
    if Array.length y = n && Model.feasible model (fun v -> y.(v)) then
      consider_incumbent (Array.copy y)
  in
  (match warm_start with Some y -> seed y | None -> ());
  (* additional starting points (e.g. the incumbent trail of a related
     solve); infeasible ones are filtered by [seed] *)
  List.iter seed extra_starts;
  (* [known_lb] is a caller-proven lower bound on the optimal key (the
     caller must guarantee it, e.g. the proven optimum of a relaxation of
     this model).  Once the incumbent is within the optimality gap of it,
     the search can stop with a proof. *)
  let proved_by_lb () =
    (* an infinite incumbent key would make the relative-gap term
       infinite and "prove" optimality with no incumbent at all *)
    Float.is_finite !incumbent_key
    && !incumbent_key
       <= options.known_lb
          +. max options.gap_abs (options.gap_rel *. Float.abs !incumbent_key)
  in
  let root_lb = Array.init n (fun v -> (Model.var_info model v).Model.lb) in
  let root_ub = Array.init n (fun v -> (Model.var_info model v).Model.ub) in
  (* remaining hard budget for the next LP call; [infinity] disables the
     mid-solve abort and reproduces the historical pivot sequences *)
  let lp_budget () =
    if options.hard_work_limit then Float.max 0. (options.work_limit -. !work)
    else infinity
  in
  (* a mid-LP abort charges the whole remaining budget, so the loop-head
     limit checks fire deterministically on the next iteration *)
  let charge_budget () = work := Float.max !work options.work_limit in
  (* root cutting-plane rounds: solve the root LP, separate violated
     cover cuts, append, repeat.  Work and pivots count against the same
     deterministic budgets as node LPs. *)
  if options.cut_rounds > 0 then begin
    let continue_cuts = ref true in
    let round = ref 0 in
    while !continue_cuts && !round < options.cut_rounds
          && !work < options.work_limit do
      incr round;
      match
        Simplex.solve_stats ~lb:root_lb ~ub:root_ub
          ~work_budget:(lp_budget ()) model
      with
      | exception Simplex.Budget_exhausted ->
          charge_budget ();
          continue_cuts := false
      | lp, w, p -> (
          work := !work +. w;
          pivots := !pivots + p;
          match lp with
          | Simplex.Optimal { x; _ } ->
              let cuts = Cuts.separate model x ~seen:seen_cuts ~max_cuts:16 in
              if cuts = [] then continue_cuts := false
              else begin
                Cuts.add model cuts;
                cuts_added := !cuts_added + List.length cuts
              end
          | Simplex.Infeasible | Simplex.Unbounded | Simplex.Stalled ->
              continue_cuts := false)
    done
  end;
  let heap = Heap.create () in
  Heap.push heap neg_infinity
    { nlb = root_lb; nub = root_ub; parent_bound = neg_infinity };
  let nodes = ref 0 in
  let hit_limit = ref false in
  let saw_unbounded = ref false in
  let fathom_key () =
    !incumbent_key
    -. max options.gap_abs (options.gap_rel *. Float.abs !incumbent_key)
  in
  let proved = ref false in
  let continue = ref true in
  while !continue do
    (* deterministic limits (work, nodes) are checked before the wall
       clock so that runs with a finite work budget terminate identically
       on any machine and at any domain count *)
    if proved_by_lb () then begin
      proved := true;
      continue := false
    end
    else if
      !work >= options.work_limit
      || !nodes >= options.node_limit
      || Fault.exhausted "ilp.budget"
    then begin
      hit_limit := true;
      continue := false
    end
    else if Clock.now_s () -. start > options.time_limit_s then begin
      hit_limit := true;
      continue := false
    end
    else
      match Heap.pop heap with
      | None -> continue := false
      | Some (key, nd) ->
          if key >= fathom_key () then continue := false
            (* best-first: all remaining nodes are worse *)
          else begin
            incr nodes;
            match
              Simplex.solve_stats ~lb:nd.nlb ~ub:nd.nub
                ~work_budget:(lp_budget ()) model
            with
            | exception Simplex.Budget_exhausted ->
                (* the node is unresolved; stopping the whole search (not
                   just skipping it) keeps the incumbent sound *)
                charge_budget ()
            | lp, w, p -> (
            work := !work +. w;
            pivots := !pivots + p;
            match lp with
            | Simplex.Infeasible -> ()
            | Simplex.Unbounded -> saw_unbounded := true
            | Simplex.Stalled ->
                (* the LP could neither find a feasible vertex nor prove
                   infeasibility within its deterministic pivot caps:
                   this subtree is undecided, so continuing (or pruning)
                   could silently lose the true optimum.  Stop the whole
                   search and report the incumbent [Feasible] — same
                   contract as an exhausted work budget. *)
                hit_limit := true;
                continue := false
            | Simplex.Optimal { x; obj } -> (
                let bound_key = key_of_obj obj in
                if bound_key >= fathom_key () then ()
                else begin
                  (match rounded_candidate model options x with
                  | Some y -> consider_incumbent y
                  | None ->
                      (* periodically try the LP-based completion *)
                      if !nodes land 7 = 1 then
                        match
                          fix_and_solve model nd.nlb nd.nub x ~work ~pivots
                            ~work_budget:(lp_budget ())
                        with
                        | Some y -> consider_incumbent y
                        | None -> ()
                        | exception Simplex.Budget_exhausted ->
                            charge_budget ());
                  match fractional_var model options x with
                  | None ->
                      (* integral LP solution *)
                      let y = Array.copy x in
                      for v = 0 to n - 1 do
                        if is_int_kind (Model.var_info model v).Model.kind then
                          y.(v) <- Float.round y.(v)
                      done;
                      if Model.feasible model (fun v -> y.(v)) then
                        consider_incumbent y
                  | Some v ->
                      let xv = x.(v) in
                      let down_ub = Array.copy nd.nub in
                      down_ub.(v) <- Float.floor xv;
                      let up_lb = Array.copy nd.nlb in
                      up_lb.(v) <- Float.ceil xv;
                      Heap.push heap bound_key
                        { nlb = nd.nlb; nub = down_ub; parent_bound = bound_key };
                      Heap.push heap bound_key
                        { nlb = up_lb; nub = nd.nub; parent_bound = bound_key }
                end))
          end
  done;
  let finish status x obj incumbents =
    {
      status;
      x;
      obj;
      nodes = !nodes;
      pivots = !pivots;
      cuts = !cuts_added;
      incumbents;
    }
  in
  match !incumbent with
  | Some (y, o) ->
      finish
        (if !hit_limit && not !proved then Feasible else Optimal)
        (Some y) o !incumbents
  | None ->
      if !saw_unbounded then finish Unbounded None nan []
      else if !hit_limit then
        (* limit ran out before any incumbent was found: not a proof of
           infeasibility, so report it as such and let the caller degrade
           (heuristic point, sequential fallback).  Note a warm-started
           solve can never land here — the seed is already an
           incumbent. *)
        finish Limit None nan []
      else finish Infeasible None nan []
