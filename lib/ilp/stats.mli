(** Statistics collector for generated ILPs — the data behind the paper's
    Table I (#ILPs, #variables, #constraints, solve time).

    Not domain-safe by itself: under parallel solving, give each worker
    its own [t] and {!merge} them in a deterministic order (that is what
    [Parcore.Algorithm] does), so totals are exact at any worker count. *)

type t = {
  mutable ilps : int;
  mutable vars : int;
  mutable constrs : int;
  mutable solve_time_s : float;
  mutable bb_nodes : int;
  mutable pivots : int;
      (** simplex pivots across all LP relaxations of the recorded solves
          (exact per-solve counts, deterministic at any [jobs] value) *)
  mutable presolve_fixed : int;
      (** variables eliminated by the presolve pass across the recorded
          solves *)
  mutable presolve_rows : int;
      (** constraint rows dropped as redundant by the presolve pass *)
  mutable cuts : int;  (** cover cuts added by branch & bound *)
  mutable cache_hits : int;
      (** solves answered from the {!Memo} cache; not counted in [ilps],
          which stays the number of ILPs actually solved *)
  mutable deg_incumbent : int;
      (** solves that hit a limit and delivered their best incumbent *)
  mutable deg_lp_round : int;
      (** always 0: the LP-rounding rung is gone; the field stays only
          because perfbench reads it *)
  mutable deg_greedy : int;
      (** solves whose search failed (limit without an incumbent, or a
          solver fault) and fell back to the heuristic point *)
  mutable deg_seq : int;
      (** failed solves with no heuristic point either: the node kept
          only its sequential candidate *)
  mutable heuristic_solves : int;
      (** heuristic points computed by the list-scheduler/GA
          engine (no branch & bound); disjoint from [ilps] *)
  mutable heur_time_s : float;
      (** wall time spent inside the heuristic engine *)
  mutable wins_heuristic : int;
      (** races where the heuristic point survived *)
  mutable wins_exact : int;
      (** races where branch & bound improved on the heuristic point *)
  mutable quality_gap_max : float;
      (** worst observed relative gap (heur - exact) / exact across
          exact-won races; merged with [max] *)
}

val create : unit -> t
val reset : t -> unit

(** Record one solved ILP (acceleration counters default to 0). *)
val record :
  ?pivots:int ->
  ?presolve_fixed:int ->
  ?presolve_rows:int ->
  ?cuts:int ->
  t ->
  Model.t ->
  nodes:int ->
  time_s:float ->
  unit

(** Record one solve answered from the {!Memo} cache. *)
val record_cache_hit : t -> unit

(** Record one subproblem answered by the heuristic engine. *)
val record_heuristic : t -> time_s:float -> unit

(** Record one race outcome (branch & bound vs the heuristic point): the winning engine and, when the
    exact engine won, the relative gap the heuristic left on the table
    (pass [0.] otherwise). *)
val record_race :
  t -> winner:[ `Heuristic | `Exact ] -> quality_gap:float -> unit

(** Record one solve landing on a degradation-ladder rung. *)
val record_degraded : t -> [ `Incumbent | `Heuristic | `Sequential ] -> unit

(** [true] iff any solve fell below the best-incumbent rung, i.e. the
    candidate sets may be missing solutions the full search would have
    found — the whole run must then be reported as degraded. *)
val ladder_engaged : t -> bool

val merge : into:t -> t -> unit
val copy : t -> t
val pp : Format.formatter -> t -> unit
