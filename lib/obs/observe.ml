(** Unified observability exports: one schema-versioned metrics document
    joining {!Ilp.Stats} (the paper's Table I totals) with
    {!Runtime.Metrics.snapshot} and the traced per-phase wall times, plus
    the human [--profile] summary table.

    The solver section mirrors the [Ilp.Stats] record field-for-field so
    the JSON totals are exactly what [--verbose] prints — no re-derivation
    from trace events (which can drop under ring overwrite). *)

module J = Trace_json

let schema = "mpsoc-par/metrics/v1"

let num i = J.Num (float_of_int i)

(* ---- environment metadata ----------------------------------------- *)

let git_rev () =
  try
    let ic =
      Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
    in
    let rev = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> Some rev
    | _ -> None
  with _ -> None

let utc_timestamp () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(** Provenance block shared by the metrics document and the bench
    report: schema/git/compiler/host facts that make runs comparable
    across commits and machines. *)
let run_metadata () =
  [
    ("git_rev", match git_rev () with Some r -> J.Str r | None -> J.Null);
    ("ocaml_version", J.Str Sys.ocaml_version);
    ("host_domains", num (Domain.recommended_domain_count ()));
    ("generated_utc", J.Str (utc_timestamp ()));
  ]

(* ---- sections ------------------------------------------------------ *)

let solver_json (st : Ilp.Stats.t) : J.t =
  J.Obj
    [
      ("ilps", num st.Ilp.Stats.ilps);
      ("vars", num st.Ilp.Stats.vars);
      ("constrs", num st.Ilp.Stats.constrs);
      ("solve_time_s", J.Num st.Ilp.Stats.solve_time_s);
      ("bb_nodes", num st.Ilp.Stats.bb_nodes);
      ("pivots", num st.Ilp.Stats.pivots);
      ("presolve_fixed", num st.Ilp.Stats.presolve_fixed);
      ("presolve_rows", num st.Ilp.Stats.presolve_rows);
      ("cuts", num st.Ilp.Stats.cuts);
      ("cache_hits", num st.Ilp.Stats.cache_hits);
      ("heuristic_solves", num st.Ilp.Stats.heuristic_solves);
      ("heur_time_s", J.Num st.Ilp.Stats.heur_time_s);
      ( "engine_wins",
        J.Obj
          [
            ("heuristic", num st.Ilp.Stats.wins_heuristic);
            ("exact", num st.Ilp.Stats.wins_exact);
          ] );
      ("quality_gap_max", J.Num st.Ilp.Stats.quality_gap_max);
      ( "degraded",
        J.Obj
          [
            ("incumbent", num st.Ilp.Stats.deg_incumbent);
            ("heuristic", num st.Ilp.Stats.deg_greedy);
            ("seq_fallback", num st.Ilp.Stats.deg_seq);
          ] );
    ]

let runtime_json (s : Runtime.Metrics.snapshot) : J.t =
  let int_arr a = J.List (Array.to_list (Array.map num a)) in
  J.Obj
    [
      ("domains", num s.Runtime.Metrics.domains);
      ("wall_s", J.Num s.Runtime.Metrics.wall_s);
      ("steps", num s.Runtime.Metrics.n_steps);
      ("forks", num s.Runtime.Metrics.n_forks);
      ("inline_forks", num s.Runtime.Metrics.n_inline_forks);
      ("tasks_spawned", num s.Runtime.Metrics.n_tasks_spawned);
      ("steals", num s.Runtime.Metrics.n_steals);
      ("sends", num s.Runtime.Metrics.n_sends);
      ("recvs", num s.Runtime.Metrics.n_recvs);
      ("bytes_sent", num s.Runtime.Metrics.n_bytes_sent);
      ("merges", num s.Runtime.Metrics.n_merges);
      ("splits", num s.Runtime.Metrics.n_splits);
      ("seq_fallbacks", num s.Runtime.Metrics.n_seq_fallbacks);
      ( "worker_busy_s",
        J.List
          (Array.to_list
             (Array.map (fun b -> J.Num b) s.Runtime.Metrics.worker_busy_s)) );
      ("worker_tasks", int_arr s.Runtime.Metrics.worker_tasks);
      ("worker_steals", int_arr s.Runtime.Metrics.worker_steals);
    ]

let cache_json (c : Cache.Store.counters) : J.t =
  J.Obj
    [
      ("schema", J.Str Cache.Store.schema);
      ("hits", num c.Cache.Store.hits);
      ("misses", num c.Cache.Store.misses);
      ("hit_rate", J.Num (Cache.Store.hit_rate c));
      ("evictions", num c.Cache.Store.evictions);
      ("corrupt", num c.Cache.Store.corrupt);
      ("stale", num c.Cache.Store.stale);
      ("entries", num c.Cache.Store.entries);
      ("bytes", num c.Cache.Store.bytes);
    ]

let phases_json (phases : (string * float) list) : J.t =
  J.Obj (List.map (fun (n, s) -> (n, J.Num s)) phases)

(* Recorder self-description: how complete is the trace itself?  A
   nonzero [dropped_spans] means ring overwrite ate events and phase /
   span-derived numbers undercount. *)
let trace_json (c : Trace.collected) : J.t =
  J.Obj
    [
      ("events", num (List.length c.Trace.events));
      ("domains", num (List.length c.Trace.domains));
      ("dropped_spans", num c.Trace.dropped);
      ("span_s", J.Num c.Trace.span_s);
    ]

(** Per-phase wall seconds from a trace collection (category ["phase"]). *)
let phases_of_events events = Trace.span_totals ~cat:"phase" events

(** The unified document.  [stats] is required — solver totals are the
    one section every flow has; the rest attaches when available.
    [sections] appends caller-built sections (e.g. the serve daemon's
    ["server"] block) without [Observe] having to know their shape. *)
let metrics_doc ~generated_by ?phases ?runtime ?cache ?trace ?(sections = [])
    ?wall_s (stats : Ilp.Stats.t) : J.t =
  let opt name v f = match v with None -> [] | Some x -> [ (name, f x) ] in
  J.Obj
    ([ ("schema", J.Str schema); ("generated_by", J.Str generated_by) ]
    @ run_metadata ()
    @ opt "wall_s" wall_s (fun w -> J.Num w)
    @ [ ("solver", solver_json stats) ]
    @ opt "cache" cache cache_json
    @ opt "phases" phases phases_json
    @ opt "runtime" runtime runtime_json
    @ opt "trace" trace trace_json
    @ sections)

(* ---- output -------------------------------------------------------- *)

(* [path = "-"] writes to stdout. *)
let write_json ~path (doc : J.t) =
  let s = J.to_string ~pretty:true doc ^ "\n" in
  if path = "-" then print_string s
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc s)
  end

(* ---- the --profile table ------------------------------------------- *)

let top_solves ?(n = 10) (events : Trace.event list) =
  let xs =
    List.filter (fun (e : Trace.event) -> e.Trace.cat = "ilp" && e.Trace.ph = Trace.X) events
  in
  let sorted =
    List.stable_sort
      (fun (a : Trace.event) (b : Trace.event) ->
        compare b.Trace.dur_us a.Trace.dur_us)
      xs
  in
  List.filteri (fun i _ -> i < n) sorted

let arg_str args key =
  match List.assoc_opt key args with
  | Some (Trace.Str s) -> s
  | Some (Trace.Int i) -> string_of_int i
  | Some (Trace.Float f) -> Printf.sprintf "%g" f
  | Some (Trace.Bool b) -> string_of_bool b
  | None -> "-"

(** The [--profile] summary: per-phase wall times (with an [other] row so
    the column sums to the total), solver totals in the paper's Table I
    shape, and the slowest individual ILP solves from the trace. *)
let profile_table ppf ?runtime ?(dropped = 0) ~wall_s
    ~(events : Trace.event list) (st : Ilp.Stats.t) =
  let phases = phases_of_events events in
  let covered = List.fold_left (fun a (_, s) -> a +. s) 0. phases in
  let pct s = if wall_s > 0. then 100. *. s /. wall_s else 0. in
  Format.fprintf ppf "@[<v>";
  if dropped > 0 then
    Format.fprintf ppf
      "WARNING: trace ring overflowed, %d event(s) dropped — phase and \
       solve numbers below undercount (rerun with a larger --trace ring \
       capacity)@,"
      dropped;
  Format.fprintf ppf "== profile: phases (wall %.3f s) ==@," wall_s;
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf "  %-14s %9.3f s  %5.1f%%@," name s (pct s))
    phases;
  Format.fprintf ppf "  %-14s %9.3f s  %5.1f%%@," "(other)"
    (Float.max 0. (wall_s -. covered))
    (pct (Float.max 0. (wall_s -. covered)));
  Format.fprintf ppf "== solver totals (Table I shape) ==@,";
  Format.fprintf ppf "  #ILPs %d  #vars %d  #constrs %d  solve %.3f s@,"
    st.Ilp.Stats.ilps st.Ilp.Stats.vars st.Ilp.Stats.constrs
    st.Ilp.Stats.solve_time_s;
  Format.fprintf ppf
    "  B&B nodes %d  pivots %d  cuts %d  presolve %d fixed / %d rows@,"
    st.Ilp.Stats.bb_nodes st.Ilp.Stats.pivots st.Ilp.Stats.cuts
    st.Ilp.Stats.presolve_fixed st.Ilp.Stats.presolve_rows;
  Format.fprintf ppf
    "  cache hits %d  degraded: %d incumbent / %d heuristic / %d seq@,"
    st.Ilp.Stats.cache_hits st.Ilp.Stats.deg_incumbent st.Ilp.Stats.deg_greedy
    st.Ilp.Stats.deg_seq;
  if st.Ilp.Stats.heuristic_solves > 0 then
    Format.fprintf ppf
      "  heuristic solves %d (%.3f s)  race wins: %d heuristic / %d exact  \
       max gap %.2f%%@,"
      st.Ilp.Stats.heuristic_solves st.Ilp.Stats.heur_time_s
      st.Ilp.Stats.wins_heuristic st.Ilp.Stats.wins_exact
      (100. *. st.Ilp.Stats.quality_gap_max);
  (match runtime with
  | None -> ()
  | Some (s : Runtime.Metrics.snapshot) ->
      Format.fprintf ppf "== runtime ==@,";
      Format.fprintf ppf
        "  domains %d  tasks %d  steals %d  sends/recvs %d/%d  steps %d@,"
        s.Runtime.Metrics.domains s.Runtime.Metrics.n_tasks_spawned
        s.Runtime.Metrics.n_steals s.Runtime.Metrics.n_sends
        s.Runtime.Metrics.n_recvs s.Runtime.Metrics.n_steps);
  (match top_solves events with
  | [] -> ()
  | top ->
      Format.fprintf ppf "== slowest ILP solves ==@,";
      List.iter
        (fun (e : Trace.event) ->
          Format.fprintf ppf
            "  %-18s %8.2f ms  vars %-4s constrs %-4s nodes %-5s pivots %-6s \
             cuts %-3s %s%s@,"
            e.Trace.name (e.Trace.dur_us /. 1e3)
            (arg_str e.Trace.args "vars")
            (arg_str e.Trace.args "constrs")
            (arg_str e.Trace.args "nodes")
            (arg_str e.Trace.args "pivots")
            (arg_str e.Trace.args "cuts")
            (arg_str e.Trace.args "status")
            (if arg_str e.Trace.args "cached" = "true" then " (cached)" else ""))
        top);
  Format.fprintf ppf "@]"
