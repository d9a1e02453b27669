(** Parallel solution candidates (paper Section III-B): every AHTG node
    accumulates a set of candidates, each tagged with the processor class
    of its main task and annotated with modelled execution time and the
    extra processing units it allocates per class (the paper's
    [USEDPROCS]). *)

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
      (** sequential on [main_class]; for hierarchical nodes the array
          holds the (sequential, same-class) choice per child *)
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
  chunk_iters : float array;  (** iterations per entry assigned to task t *)
  split_class : int array;  (** task index -> processor class *)
}

and pipeline = {
  stage_of : int array;  (** child index -> stage index *)
  stage_class : int array;  (** stage index -> class (-1 unused) *)
  bottleneck_us : float;  (** per-iteration time of the slowest stage *)
}

and breakdown = { exec_us : float; comm_us : float; spawn_us : float }

val no_breakdown : breakdown

(** Total processing units consumed: the main unit plus all extras. *)
val total_units : t -> int

(** Number of tasks (1 for sequential candidates). *)
val num_tasks : t -> int

val is_sequential : t -> bool

val degradation_rank : degradation -> int
(** 0 for [Exact], 1 for [Heuristic], 2 for [Incumbent]; monotone in
    severity. *)

val degradation_name : degradation -> string

val worst_degradation : t -> degradation
(** Worst level anywhere in the candidate's choice tree — the level the
    whole solution must be reported at (drives the CLI's exit code 2). *)

(** A fork/join partition of a hierarchical node's children over a dense
    task index space: [owner.(n)] is the task executing child [n], task 0
    is the main task (always present), [classes.(t)] the declared
    processor class of task [t] ([-1]: run on the caller's class).  The
    runtime-consumable form of a candidate's task structure. *)
type partition = { owner : int array; classes : int array }

(** The dense partition of a [Par] or [Pipeline] candidate; [None] for
    sequential and split candidates. *)
val partition : t -> partition option

(** Dense partition of a raw (child -> task, task -> class) assignment. *)
val partition_of_assignment : int array -> int array -> partition

val kind_str : t -> string
val pp : Format.formatter -> t -> unit

(** Candidates of one node grouped by main class: [set.(c)] lists class
    [c]'s candidates; the sequential candidate is always present. *)
type set = t list array

(** Pareto-prune on (total units, time), keeping at most [max_keep]
    survivors including the extremes. *)
val prune : max_keep:int -> t list -> t list

(** The sequential candidate of class [c] (raises if absent). *)
val seq_of : set -> int -> t

val all : set -> t list

(** Best candidate overall by modelled time. *)
val best : set -> t
