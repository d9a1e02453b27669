(** The list scheduler: AMTHA-style balanced list schedules refined by a
    small seeded genetic algorithm, evaluated against the {e exact}
    ILPPAR model ({!Formulation.par_point} + [Ilp.Model.feasible]) so
    only optimality is forgone.  Its best point is the heuristic engine's
    answer, a branch & bound start under the exact engines, and the
    fallback when a search fails ({!Portfolio}).  Fully deterministic at
    any worker count. *)

(** Best heuristic point of one built instance: the full model point and
    its exact-model objective.  Memoized in [cache] under the
    ["heuristic"] engine fingerprint (never replayable as an exact
    answer); recorded in [stats] as a heuristic solve or cache hit. *)
val best_point :
  ?stats:Ilp.Stats.t ->
  ?cache:Ilp.Memo.t ->
  Formulation.input ->
  Formulation.instance ->
  (float array * float) option
