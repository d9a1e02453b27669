(** Statistics collector for generated ILPs — the data behind the paper's
    Table I (#ILPs, #variables, #constraints, solve time).

    A value of this type is plain mutable state and is {e not} domain-safe
    on its own.  The concurrency discipline is per-worker accumulation:
    every parallel solve job records into its own private [t] and the
    driver combines them with {!merge} in a deterministic order, so totals
    are exact (no lost updates) and identical at any worker count. *)

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
      (** variables eliminated by the presolve pass (implied-bound fixing
          plus dominated-column removal) across the recorded solves *)
  mutable presolve_rows : int;
      (** constraint rows dropped as redundant by the presolve pass *)
  mutable cuts : int;  (** cover cuts added by branch & bound *)
  mutable cache_hits : int;
      (** solves answered from the {!Memo} cache; these are *not* counted
          in [ilps] — that stays the number of ILPs actually solved *)
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
      (** heuristic points computed by the list-scheduler/GA engine
          (every engine takes one per subproblem); disjoint from [ilps] *)
  mutable heur_time_s : float;
      (** wall time spent inside the heuristic engine *)
  mutable wins_heuristic : int;
      (** races where the heuristic point survived (branch & bound
          could not improve on it) *)
  mutable wins_exact : int;
      (** races where branch & bound improved on the heuristic point *)
  mutable quality_gap_max : float;
      (** worst observed relative gap (heur - exact) / exact across the
          races that the exact engine won; merged with [max] *)
}

let create () =
  {
    ilps = 0;
    vars = 0;
    constrs = 0;
    solve_time_s = 0.;
    bb_nodes = 0;
    pivots = 0;
    presolve_fixed = 0;
    presolve_rows = 0;
    cuts = 0;
    cache_hits = 0;
    deg_incumbent = 0;
    deg_lp_round = 0;
    deg_greedy = 0;
    deg_seq = 0;
    heuristic_solves = 0;
    heur_time_s = 0.;
    wins_heuristic = 0;
    wins_exact = 0;
    quality_gap_max = 0.;
  }

let reset t =
  t.ilps <- 0;
  t.vars <- 0;
  t.constrs <- 0;
  t.solve_time_s <- 0.;
  t.bb_nodes <- 0;
  t.pivots <- 0;
  t.presolve_fixed <- 0;
  t.presolve_rows <- 0;
  t.cuts <- 0;
  t.cache_hits <- 0;
  t.deg_incumbent <- 0;
  t.deg_lp_round <- 0;
  t.deg_greedy <- 0;
  t.deg_seq <- 0;
  t.heuristic_solves <- 0;
  t.heur_time_s <- 0.;
  t.wins_heuristic <- 0;
  t.wins_exact <- 0;
  t.quality_gap_max <- 0.

let record ?(pivots = 0) ?(presolve_fixed = 0) ?(presolve_rows = 0)
    ?(cuts = 0) t (model : Model.t) ~nodes ~time_s =
  t.ilps <- t.ilps + 1;
  t.vars <- t.vars + Model.num_vars model;
  t.constrs <- t.constrs + Model.num_constraints model;
  t.solve_time_s <- t.solve_time_s +. time_s;
  t.bb_nodes <- t.bb_nodes + nodes;
  t.pivots <- t.pivots + pivots;
  t.presolve_fixed <- t.presolve_fixed + presolve_fixed;
  t.presolve_rows <- t.presolve_rows + presolve_rows;
  t.cuts <- t.cuts + cuts

let record_cache_hit t = t.cache_hits <- t.cache_hits + 1

(** One subproblem answered by the heuristic engine (list scheduler /
    GA), outside branch & bound. *)
let record_heuristic t ~time_s =
  t.heuristic_solves <- t.heuristic_solves + 1;
  t.heur_time_s <- t.heur_time_s +. time_s

(** Outcome of one race between branch & bound and the heuristic point: which engine's answer was kept, and
    (when the exact engine improved on the heuristic) the relative
    quality gap the heuristic left on the table. *)
let record_race t ~winner ~quality_gap =
  (match winner with
  | `Heuristic -> t.wins_heuristic <- t.wins_heuristic + 1
  | `Exact -> t.wins_exact <- t.wins_exact + 1);
  if quality_gap > t.quality_gap_max then t.quality_gap_max <- quality_gap

(** One solve landed on a degradation-ladder rung (see
    [Solution.degradation] in [lib/core]). *)
let record_degraded t level =
  match level with
  | `Incumbent -> t.deg_incumbent <- t.deg_incumbent + 1
  | `Heuristic -> t.deg_greedy <- t.deg_greedy + 1
  | `Sequential -> t.deg_seq <- t.deg_seq + 1

(** [true] iff any solve fell below the best-incumbent rung, i.e. the
    candidate sets may be missing solutions branch & bound would have
    found with enough budget. *)
let ladder_engaged t = t.deg_greedy > 0 || t.deg_seq > 0

let merge ~into:a b =
  a.ilps <- a.ilps + b.ilps;
  a.vars <- a.vars + b.vars;
  a.constrs <- a.constrs + b.constrs;
  a.solve_time_s <- a.solve_time_s +. b.solve_time_s;
  a.bb_nodes <- a.bb_nodes + b.bb_nodes;
  a.pivots <- a.pivots + b.pivots;
  a.presolve_fixed <- a.presolve_fixed + b.presolve_fixed;
  a.presolve_rows <- a.presolve_rows + b.presolve_rows;
  a.cuts <- a.cuts + b.cuts;
  a.cache_hits <- a.cache_hits + b.cache_hits;
  a.deg_incumbent <- a.deg_incumbent + b.deg_incumbent;
  a.deg_lp_round <- a.deg_lp_round + b.deg_lp_round;
  a.deg_greedy <- a.deg_greedy + b.deg_greedy;
  a.deg_seq <- a.deg_seq + b.deg_seq;
  a.heuristic_solves <- a.heuristic_solves + b.heuristic_solves;
  a.heur_time_s <- a.heur_time_s +. b.heur_time_s;
  a.wins_heuristic <- a.wins_heuristic + b.wins_heuristic;
  a.wins_exact <- a.wins_exact + b.wins_exact;
  if b.quality_gap_max > a.quality_gap_max then
    a.quality_gap_max <- b.quality_gap_max

let copy t = { t with ilps = t.ilps }

let pp ppf t =
  Fmt.pf ppf "#ILPs %d, #Var %d, #Constr %d, time %.2fs, B&B nodes %d" t.ilps
    t.vars t.constrs t.solve_time_s t.bb_nodes;
  if t.pivots > 0 then Fmt.pf ppf ", pivots %d" t.pivots;
  if t.presolve_fixed > 0 then
    Fmt.pf ppf ", presolve-fixed %d" t.presolve_fixed;
  if t.presolve_rows > 0 then
    Fmt.pf ppf ", presolve-rows %d" t.presolve_rows;
  if t.cuts > 0 then Fmt.pf ppf ", cuts %d" t.cuts;
  if t.cache_hits > 0 then Fmt.pf ppf ", cache hits %d" t.cache_hits;
  if t.deg_incumbent > 0 then Fmt.pf ppf ", incumbent-only %d" t.deg_incumbent;
  if t.deg_greedy > 0 then Fmt.pf ppf ", heuristic-fallback %d" t.deg_greedy;
  if t.deg_seq > 0 then Fmt.pf ppf ", seq-fallback %d" t.deg_seq;
  if t.heuristic_solves > 0 then
    Fmt.pf ppf ", heuristic %d (%.2fs)" t.heuristic_solves t.heur_time_s;
  if t.wins_heuristic > 0 || t.wins_exact > 0 then
    Fmt.pf ppf ", race wins heur/exact %d/%d (worst gap %.2f%%)"
      t.wins_heuristic t.wins_exact (100. *. t.quality_gap_max)
