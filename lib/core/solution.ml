(** Parallel solution candidates (paper Section III-B).

    Each AHTG node accumulates a set of candidates, every one tagged with
    the processor class executing its {e main task} and annotated with its
    modelled execution time, the number of {e extra} processing units it
    allocates per class (beyond the unit that runs the main task — the
    paper's [USEDPROCS]), and enough structure to implement it later. *)

(** How far down the solver degradation ladder a candidate was produced.
    [Exact] and [Incumbent] come from branch & bound (proved optimum vs
    best incumbent at a limit); [Heuristic] is the list scheduler's
    point — the native tier of [--solver=heuristic], and the fallback
    when a search ends with no incumbent at all (or a fault was injected
    into the solver). *)
type degradation =
  | Exact  (** ILP proved optimal (or construction needs no solver) *)
  | Incumbent  (** budget ran out; best branch & bound incumbent *)
  | Heuristic
      (** list-scheduler / GA schedule, feasibility-checked against the
          exact model; {!degradation_rank} orders it right after
          [Exact] *)

type t = {
  node_id : int;  (** AHTG node this candidate belongs to *)
  main_class : int;  (** the paper's candidate tag *)
  time_us : float;  (** modelled total execution time of the node *)
  extra_units : int array;  (** per class, beyond the main task's unit *)
  degrade : degradation;
  kind : kind;
}

and kind =
  | Seq of t array
      (** sequential execution on [main_class]; for hierarchical nodes the
          array holds the (sequential, same-class) choice per child *)
  | Par of par
  | Split of split
  | Pipeline of pipeline

and par = {
  assignment : int array;  (** child index -> task index *)
  task_class : int array;  (** task index -> processor class (-1 unused) *)
  child_choice : t array;  (** chosen candidate per child *)
  par_time_breakdown : breakdown;
}

and split = {
  (* DOALL loop iteration-range splitting: chunk sizes per task *)
  chunk_iters : float array;  (** iterations per entry assigned to task t *)
  split_class : int array;  (** task index -> processor class *)
}

and pipeline = {
  (* software pipelining of a sequential loop: body statements partitioned
     into contiguous stages that overlap across iterations (the paper's
     named future-work extension, off by default) *)
  stage_of : int array;  (** child index -> stage index *)
  stage_class : int array;  (** stage index -> class (-1 unused) *)
  bottleneck_us : float;  (** per-iteration time of the slowest stage *)
}

and breakdown = { exec_us : float; comm_us : float; spawn_us : float }

let no_breakdown = { exec_us = 0.; comm_us = 0.; spawn_us = 0. }

(** Total processing units consumed: the main unit plus all extras. *)
let total_units s = 1 + Array.fold_left ( + ) 0 s.extra_units

(** Number of tasks (1 for sequential candidates). *)
let num_tasks s =
  match s.kind with
  | Seq _ -> 1
  | Par p ->
      Array.fold_left (fun acc c -> if c >= 0 then acc + 1 else acc) 0
        p.task_class
  | Split sp ->
      Array.fold_left
        (fun acc n -> if n > 0. then acc + 1 else acc)
        0 sp.chunk_iters
  | Pipeline p ->
      Array.fold_left (fun acc c -> if c >= 0 then acc + 1 else acc) 0
        p.stage_class

let is_sequential s = match s.kind with Seq _ -> true | _ -> false

let degradation_rank = function Exact -> 0 | Heuristic -> 1 | Incumbent -> 2

let degradation_name = function
  | Exact -> "exact"
  | Heuristic -> "heuristic"
  | Incumbent -> "incumbent"

(** Worst degradation anywhere in the candidate's choice tree: the level
    the whole solution must be reported at. *)
let rec worst_degradation s =
  let fold = Array.fold_left (fun acc c ->
      let d = worst_degradation c in
      if degradation_rank d > degradation_rank acc then d else acc)
  in
  match s.kind with
  | Seq children -> fold s.degrade children
  | Par p -> fold s.degrade p.child_choice
  | Split _ | Pipeline _ -> s.degrade

(* ------------------------------------------------------------------ *)
(* Dense task partition (runtime-consumable form)                      *)
(* ------------------------------------------------------------------ *)

(** A fork/join partition of a hierarchical node's children over a dense
    task index space: [owner.(n)] is the task executing child [n], task 0
    is the main task (always present), [classes.(t)] the declared
    processor class of task [t] (may be [-1]: run on the caller's class).
    This is the form the implement stage and the execution runtime
    consume; it compresses away task slots the ILP left unused. *)
type partition = { owner : int array; classes : int array }

let partition_of_assignment assignment task_class : partition =
  let used =
    List.filter
      (fun t -> t = 0 || Array.exists (fun a -> a = t) assignment)
      (List.init (Array.length task_class) (fun t -> t))
  in
  let index_of = Hashtbl.create 8 in
  List.iteri (fun idx t -> Hashtbl.replace index_of t idx) used;
  {
    owner =
      Array.map
        (fun t ->
          match Hashtbl.find_opt index_of t with Some i -> i | None -> 0)
        assignment;
    classes = Array.of_list (List.map (fun t -> task_class.(t)) used);
  }

(** The dense partition of a [Par] or [Pipeline] candidate ([None] for
    sequential and split candidates, which have no per-child partition). *)
let partition s : partition option =
  match s.kind with
  | Seq _ | Split _ -> None
  | Par p -> Some (partition_of_assignment p.assignment p.task_class)
  | Pipeline p ->
      (* stages with a class, stage 0 always materialized as the main
         task; children of an unmaterialized stage fall back to task 0 *)
      let used =
        List.filter
          (fun t -> t = 0 || p.stage_class.(t) >= 0)
          (List.init (Array.length p.stage_class) (fun t -> t))
      in
      let index_of = Hashtbl.create 8 in
      List.iteri (fun idx t -> Hashtbl.replace index_of t idx) used;
      Some
        {
          owner =
            Array.map
              (fun t ->
                match Hashtbl.find_opt index_of t with Some i -> i | None -> 0)
              p.stage_of;
          classes = Array.of_list (List.map (fun t -> p.stage_class.(t)) used);
        }

let kind_str s =
  match s.kind with
  | Seq _ -> "seq"
  | Par _ -> Printf.sprintf "par(%d tasks)" (num_tasks s)
  | Split _ -> Printf.sprintf "split(%d chunks)" (num_tasks s)
  | Pipeline _ -> Printf.sprintf "pipeline(%d stages)" (num_tasks s)

let pp ppf s =
  Fmt.pf ppf "node %d: %s on class %d, %.1f us, extra units [%a]%s" s.node_id
    (kind_str s) s.main_class s.time_us
    Fmt.(array ~sep:comma int)
    s.extra_units
    (match worst_degradation s with
    | Exact -> ""
    | d -> Printf.sprintf " [degraded: %s]" (degradation_name d))

(* ------------------------------------------------------------------ *)
(* Candidate sets                                                      *)
(* ------------------------------------------------------------------ *)

(** Candidates of one node, grouped by main class: [sets.(c)] is the list
    for class [c], best time first, sequential candidate always present. *)
type set = t list array

(** Pareto-prune one class's candidates on (total units, time): a
    candidate survives only if no other is at least as good on both axes;
    then cap the survivors at [max_keep], always keeping the extremes. *)
let prune ~max_keep (cands : t list) : t list =
  let sorted =
    List.sort
      (fun a b ->
        match compare (total_units a) (total_units b) with
        | 0 -> compare a.time_us b.time_us
        | c -> c)
      cands
  in
  (* ascending units: keep iff strictly faster than everything cheaper *)
  let pareto, _ =
    List.fold_left
      (fun (keep, best_time) s ->
        if s.time_us < best_time -. 1e-9 then (s :: keep, s.time_us)
        else (keep, best_time))
      ([], infinity) sorted
  in
  let pareto = List.rev pareto in
  let n = List.length pareto in
  if n <= max_keep then pareto
  else if max_keep <= 1 then [ List.nth pareto (n - 1) ]  (* fastest *)
  else begin
    (* evenly sample, always including cheapest and fastest *)
    let arr = Array.of_list pareto in
    List.init max_keep (fun i -> arr.(i * (n - 1) / (max_keep - 1)))
  end

(** The sequential candidate of class [c] in a set (always exists). *)
let seq_of (set : set) c =
  match List.find_opt is_sequential set.(c) with
  | Some s -> s
  | None -> invalid_arg "Solution.seq_of: missing sequential candidate"

(** All candidates of a set as a flat list. *)
let all (set : set) = List.concat (Array.to_list set)

(** Best candidate overall by modelled time (used at the root). *)
let best (set : set) =
  match all set with
  | [] -> invalid_arg "Solution.best: empty set"
  | x :: rest ->
      List.fold_left (fun acc s -> if s.time_us < acc.time_us then s else acc) x rest
