(** Task-parallel execution of a partitioned Mini-C program — the
    runtime counterpart of the paper's MPA backend: take the AHTG and the
    hierarchical solution the ILP chose and actually run the program
    concurrently on OCaml 5 domains.

    Execution mirrors the solution tree:

    - [Seq] nodes interpret their statements on the calling task's store.
    - [Par] regions fork their child partition: one isolated store per
      task, values crossing task boundaries through write-once channels
      placed along the HTG def-use chain, a join merge writing each
      variable's last definition back to the parent store.
    - [Par]/[Pipeline] loops run the loop control on the calling task and
      fork the body partition once per iteration (join per iteration).
    - [Par] branches evaluate the condition inline and execute only the
      taken arm (the HTG cond child covers the whole [if] and is never
      executed as a node).
    - [Split] DOALL loops chunk the iteration space over the solution's
      tasks by the ILP's iteration shares; arrays are shared (disjoint
      writes by DOALL construction), scalars privatized and merged from
      the last chunk.

    Any shape the runtime cannot honor safely is demoted to sequential
    interpretation of the node's statements (counted in the metrics), so
    execution is always faithful to sequential semantics.

    Every task runs the interpreter's compiled code
    ({!Interp.Eval.compile}, once per run, over the AHTG's statements)
    against its own slot store, so the runtime and the sequential
    interpreter share one evaluator. *)

type result = {
  ret : Interp.Value.t option;  (** value returned by [main] *)
  steps : int;  (** interpreter steps over all tasks *)
  metrics : Metrics.snapshot;
}

(** Execute [prog] under solution [sol] for AHTG root [root] on a fresh
    domain pool.  [domains] defaults to the machine's recommended domain
    count; [1] executes fully sequentially on the calling domain.
    [timeout_s > 0.] arms a {!Watchdog} (wall-clock deadline plus parked
    receive deadlock detection with no-progress window [grace_s],
    default 0.5 s); on a verdict, raises {!Mpsoc_error.Error} with kind
    [Timeout] or [Deadlock].  Re-raises interpreter errors
    ({!Interp.Eval.Runtime_error}, {!Interp.Eval.Step_limit_exceeded}). *)
val run :
  ?domains:int ->
  ?max_steps:int ->
  ?timeout_s:float ->
  ?grace_s:float ->
  Minic.Ast.program ->
  Htg.Node.t ->
  Parcore.Solution.t ->
  result

(** Like {!run}, but every failure comes back as a typed
    {!Mpsoc_error.t} (watchdog verdicts take precedence over the raw
    exception they caused). *)
val run_result :
  ?domains:int ->
  ?max_steps:int ->
  ?timeout_s:float ->
  ?grace_s:float ->
  Minic.Ast.program ->
  Htg.Node.t ->
  Parcore.Solution.t ->
  (result, Mpsoc_error.t) Stdlib.result

(** Return-value equality (the differential-validation criterion). *)
val ret_equal : Interp.Value.t option -> Interp.Value.t option -> bool

(** Run both the sequential reference interpreter and the parallel
    runtime; returns [(parallel, sequential, rets_agree)].  The watchdog
    options cover only the parallel run. *)
val validate :
  ?domains:int ->
  ?max_steps:int ->
  ?timeout_s:float ->
  ?grace_s:float ->
  Minic.Ast.program ->
  Htg.Node.t ->
  Parcore.Solution.t ->
  result * Interp.Eval.result * bool
