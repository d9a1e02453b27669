(** The heterogeneous partitioning-and-mapping ILP (paper Section IV,
    Equations 1-18) for one hierarchical AHTG node: maps child nodes to
    tasks, picks one previously computed candidate per child, tracks
    predecessor relations, accumulates critical-path costs with creation
    and communication overhead, and couples everything with a
    task-to-processor-class mapping under per-class unit budgets.  See
    the implementation header for the (behaviour-preserving) deviations
    from the paper's notation.  This module is the model only; the solve
    driver is {!Portfolio}. *)

type input = {
  node : Htg.Node.t;
  child_sets : Solution.set array;
  pf : Platform.Desc.t;
  seq_class : int;  (** class of the main task for this sweep iteration *)
  budget : int;  (** upper bound on allocatable processing units *)
  cfg : Config.t;
}

(** Variable ids of one instance, for extraction and warm starts. *)
type vars = {
  x : Ilp.Model.var array array;  (** x.(n).(t) *)
  p : Ilp.Model.var array array array;  (** p.(n).(c).(s) *)
  pred : Ilp.Model.var array array;  (** pred.(t).(u), only t<u valid *)
  map_tc : Ilp.Model.var array array;  (** map.(t).(c) *)
  used : Ilp.Model.var array;
  cost : Ilp.Model.var array;
  contrib : Ilp.Model.var array array;  (** contrib.(n).(t) *)
  accum : Ilp.Model.var array;
  commcost : Ilp.Model.var array;
  procsused : Ilp.Model.var array array;  (** procsused.(t).(c) *)
  cut : (int * Ilp.Model.var array) list;
      (** edge idx in flow list -> per task *)
  exectime : Ilp.Model.var;
}

type edge_info = {
  e_src : int;  (** child index; -1 for Comm-In *)
  e_dst : int;  (** child index; -2 for Comm-Out *)
  e_cost_us : float;  (** full transfer cost if the edge is cut *)
  e_is_flow : bool;
}

type instance = {
  model : Ilp.Model.t;
  vars : vars;
  ntasks : int;
  cands : Solution.t array array array;  (** cands.(n).(c) = candidates *)
  flow_edges : edge_info array;
  all_edges : edge_info list;
  header_us : float;
  tco_total : float;
}

(** Build one ILPPAR instance; [None] when the node has fewer than two
    children or the budget admits no parallelism. *)
val build : input -> instance option

(** All children in the main task on [seqPC], greedily upgraded to their
    fastest fitting candidates — a complete, always-feasible model point
    that seeds branch & bound and anchors the heuristic engine. *)
val hierarchical_warm_start : input -> instance -> float array

(** Full model point implied by a parallel schedule (assignment, task
    classes, child choices).  Best-effort: callers must check
    [Ilp.Model.feasible] before trusting the point.  The bridge from the
    heuristic engine's schedules to the model. *)
val par_point : input -> instance -> Solution.par -> float array option

(** Decode a model point (a branch & bound answer or a heuristic point)
    into a candidate tagged [Exact]; the driver ({!Portfolio}) retags
    incumbents and heuristic points. *)
val extract : input -> instance -> float array -> Solution.t
