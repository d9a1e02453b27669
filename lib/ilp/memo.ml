(** Structural solve cache for {!Branch_bound} (see the interface for the
    contract).

    The fingerprint is an MD5 digest of a canonical binary serialization
    of everything that can influence the solve result: variable kinds,
    bounds and branch priorities; normalized constraint rows; the
    objective and its sense; the solver options; and the warm-start
    points.  Variable, constraint and model {e names} are deliberately
    excluded, so structurally isomorphic models — same math, different
    labels, as produced for different tree nodes or processor classes
    with identical cost annotations — hit the same entry.

    Concurrency: a single mutex guards the table.  A worker that finds a
    fingerprint in flight blocks on a condition variable until the owner
    fills it; the owning worker is on another domain and never depends on
    a waiter, so this cannot deadlock.  This single-flight discipline
    means each distinct subproblem is solved exactly once at any worker
    count — which also keeps hit/miss statistics deterministic. *)

(* Who holds the single-flight reservation, and since when: a worker
   wedged mid-solve keeps its reservation forever (the ROADMAP's zombie
   hazard), and this is what lets {!stalled} name the abandoned owner
   instead of leaving peers silently blocked. *)
type reservation = {
  owner : string;
  since : float;
  mutable reported : bool;  (** already surfaced by {!stalled} *)
}

type entry = Inflight of reservation | Done of Branch_bound.solution

type backing = {
  lookup : string -> engine:string -> Branch_bound.solution option;
  store : string -> engine:string -> Branch_bound.solution -> unit;
}

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  tbl : (string, entry) Hashtbl.t;
  backing : backing option;
  hits : int Atomic.t;
  disk_hits : int Atomic.t;
  misses : int Atomic.t;
  stalls : int Atomic.t;  (** reservations reported stalled by {!stalled} *)
  cancelled : int Atomic.t;
      (** reservations force-released by {!cancel_owned} *)
}

let create ?backing () =
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 256;
    backing;
    hits = Atomic.make 0;
    disk_hits = Atomic.make 0;
    misses = Atomic.make 0;
    stalls = Atomic.make 0;
    cancelled = Atomic.make 0;
  }

(* ---- canonical fingerprint ---- *)

let add_int b i =
  Buffer.add_int64_le b (Int64.of_int i)

let add_float b f =
  (* bit pattern, so e.g. 0. and -0. are distinct and NaN is stable *)
  Buffer.add_int64_le b (Int64.bits_of_float f)

let add_terms b (e : Lin_expr.t) =
  let e = Lin_expr.normalize e in
  add_int b (List.length e.Lin_expr.terms);
  List.iter
    (fun (v, c) ->
      add_int b v;
      add_float b c)
    e.Lin_expr.terms;
  add_float b e.Lin_expr.const

let fingerprint ?engine ?(options = Branch_bound.default_options) ?warm_start
    ?(extra_starts = []) (model : Model.t) : string =
  let b = Buffer.create 4096 in
  (* Engine salt (the PR 10 portfolio): a non-exact engine's answer must
     never replay as an exact one, so any non-default engine prefixes the
     canonical buffer.  [None] adds nothing — exact fingerprints are
     byte-identical to every earlier release. *)
  (match engine with
  | None -> ()
  | Some e ->
      Buffer.add_string b "engine:";
      Buffer.add_string b e;
      Buffer.add_char b '\x00');
  (* variables: kind, bounds, priority — no names *)
  let n = Model.num_vars model in
  add_int b n;
  for v = 0 to n - 1 do
    let i = Model.var_info model v in
    add_int b (match i.Model.kind with Model.Cont -> 0 | Model.Int -> 1 | Model.Bool -> 2);
    add_float b i.Model.lb;
    add_float b i.Model.ub;
    add_int b i.Model.priority
  done;
  (* constraints: normalized expr, op, bound — no names *)
  add_int b (Model.num_constraints model);
  Model.iter_constrs
    (fun c ->
      add_int b (match c.Model.op with Model.Le -> 0 | Model.Ge -> 1 | Model.Eq -> 2);
      add_float b c.Model.bound;
      add_terms b c.Model.expr)
    model;
  (* objective *)
  add_int b (match model.Model.obj_sense with Model.Minimize -> 0 | Model.Maximize -> 1);
  add_terms b model.Model.objective;
  (* options that change the search result *)
  add_float b options.Branch_bound.time_limit_s;
  add_int b options.Branch_bound.node_limit;
  add_float b options.Branch_bound.work_limit;
  add_float b options.Branch_bound.known_lb;
  add_float b options.Branch_bound.gap_abs;
  add_float b options.Branch_bound.gap_rel;
  add_float b options.Branch_bound.int_tol;
  (* acceleration toggles change the search trajectory (and with it the
     incumbent a limited solve returns), so they salt the key: flipping a
     toggle can never replay a solution computed under another one *)
  add_int b (if options.Branch_bound.presolve then 1 else 0);
  add_int b options.Branch_bound.cut_rounds;
  (* starting points seed the incumbent, which steers the search *)
  let add_point y =
    add_int b (Array.length y);
    Array.iter (add_float b) y
  in
  (match warm_start with
  | None -> add_int b 0
  | Some y ->
      add_int b 1;
      add_point y);
  add_int b (List.length extra_starts);
  List.iter add_point extra_starts;
  Digest.string (Buffer.contents b)

(* ---- lookup protocol ---- *)

let publish c key sol =
  Mutex.lock c.mu;
  Hashtbl.replace c.tbl key (Done sol);
  Condition.broadcast c.cond;
  Mutex.unlock c.mu

(* Reservation owner label: the request tag when one is set (the serve
   daemon tags worker domains with the request id), else the domain. *)
let owner_label () =
  let dom = Printf.sprintf "domain-%d" (Domain.self () :> int) in
  match Trace.current_tag () with
  | Some tag -> Printf.sprintf "%s (req %s)" dom tag
  | None -> dom

let find_or_reserve ?(engine = "ilp") c key =
  Mutex.lock c.mu;
  let rec loop () =
    match Hashtbl.find_opt c.tbl key with
    | Some (Done sol) -> `Hit sol
    | Some (Inflight _) ->
        Condition.wait c.cond c.mu;
        loop ()
    | None ->
        Hashtbl.replace c.tbl key
          (Inflight
             { owner = owner_label (); since = Trace.now_s (); reported = false });
        `Reserved
  in
  let r = loop () in
  Mutex.unlock c.mu;
  (* Consult the disk tier only after winning the reservation, outside
     the lock: the Inflight marker makes concurrent requesters wait, so
     each key touches the disk at most once per run.  Any backing failure
     degrades to a miss (the caller just solves). *)
  let r =
    match (r, c.backing) with
    | `Reserved, Some bk -> (
        match (try bk.lookup key ~engine with _ -> None) with
        | Some sol ->
            publish c key sol;
            `Disk_hit sol
        | None -> `Reserved)
    | (`Hit _ | `Reserved), _ -> r
  in
  (match r with
  | `Hit _ -> Atomic.incr c.hits
  | `Disk_hit _ -> Atomic.incr c.disk_hits
  | `Reserved -> Atomic.incr c.misses);
  if Trace.enabled () then
    Trace.counter ~cat:"ilp" "memo"
      [
        ("hits", float_of_int (Atomic.get c.hits));
        ("disk_hits", float_of_int (Atomic.get c.disk_hits));
        ("misses", float_of_int (Atomic.get c.misses));
      ];
  match r with
  | `Disk_hit sol -> `Hit sol
  | (`Hit _ | `Reserved) as r -> r

let fill ?(engine = "ilp") c key sol =
  publish c key sol;
  (* Write-through after publishing, so waiters wake before disk IO. *)
  match c.backing with
  | Some bk -> ( try bk.store key ~engine sol with _ -> ())
  | None -> ()

let cancel c key =
  Mutex.lock c.mu;
  Hashtbl.remove c.tbl key;
  Condition.broadcast c.cond;
  Mutex.unlock c.mu

(* Force-release every reservation held on behalf of request [req] (the
   serve daemon's id for a supervisor-abandoned worker).  Owner labels
   are "domain-N (req RID)" — see {!owner_label} — so matching on the
   "(req RID)" suffix finds exactly that request's reservations.  Waiters
   are woken and re-run their [find_or_reserve] loop: one of them wins
   the now-free slot and re-solves.  If the zombie later wakes and fills
   anyway, it publishes the same deterministic solution — harmless. *)
let cancel_owned c ~req : int =
  let suffix = Printf.sprintf "(req %s)" req in
  let is_suffix ~suffix s =
    let n = String.length s and m = String.length suffix in
    m <= n && String.sub s (n - m) m = suffix
  in
  Mutex.lock c.mu;
  let doomed =
    Hashtbl.fold
      (fun key e acc ->
        match e with
        | Inflight r when is_suffix ~suffix r.owner -> key :: acc
        | Inflight _ | Done _ -> acc)
      c.tbl []
  in
  List.iter (Hashtbl.remove c.tbl) doomed;
  if doomed <> [] then Condition.broadcast c.cond;
  Mutex.unlock c.mu;
  let n = List.length doomed in
  if n > 0 then begin
    ignore (Atomic.fetch_and_add c.cancelled n);
    if Trace.enabled () then
      Trace.instant ~cat:"ilp" "memo.cancel"
        ~args:[ ("req", Trace.Str req); ("reservations", Trace.Int n) ]
  end;
  n

(* ---- stalled-reservation surfacing (the zombie hazard) ------------- *)

type stall = { key : string; s_owner : string; age_s : float }

let stalled ?(threshold_s = 5.) c ~now : stall list =
  Mutex.lock c.mu;
  let found =
    Hashtbl.fold
      (fun key e acc ->
        match e with
        | Done _ -> acc
        | Inflight r ->
            let age = now -. r.since in
            if age >= threshold_s && not r.reported then begin
              r.reported <- true;
              { key = Digest.to_hex key; s_owner = r.owner; age_s = age }
              :: acc
            end
            else acc)
      c.tbl []
  in
  Mutex.unlock c.mu;
  List.iter
    (fun st ->
      Atomic.incr c.stalls;
      if Trace.enabled () then
        Trace.instant ~cat:"ilp" "memo.stall"
          ~args:
            [
              ("key", Trace.Str st.key);
              ("owner", Trace.Str st.s_owner);
              ("age_s", Trace.Float st.age_s);
            ])
    found;
  List.sort (fun a b -> compare a.key b.key) found

let hits c = Atomic.get c.hits
let disk_hits c = Atomic.get c.disk_hits
let misses c = Atomic.get c.misses
let stall_count c = Atomic.get c.stalls
let cancelled_count c = Atomic.get c.cancelled

let hit_rate c =
  let h = float_of_int (hits c) and m = float_of_int (misses c) in
  if h +. m = 0. then 0. else h /. (h +. m)

let length c =
  Mutex.lock c.mu;
  let n =
    Hashtbl.fold
      (fun _ e n -> match e with Done _ -> n + 1 | Inflight _ -> n)
      c.tbl 0
  in
  Mutex.unlock c.mu;
  n
