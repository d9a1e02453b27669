(** The global parallelization algorithm (paper Algorithm 1).

    Bottom-up over the AHTG: children are parallelized first; then, for the
    node itself, the ILP ({!Portfolio.sweep}) is run once per processor
    class (as the main task's class) and per decreasing processor budget,
    collecting tagged parallel solution candidates.  DOALL loops
    additionally receive iteration-splitting candidates from
    {!Loop_split}.  Candidate sets are Pareto-pruned per class; a per-class
    sequential candidate is always retained, which guarantees feasibility
    of every parent ILP (Section IV-K note in the paper).

    The fan-out is itself parallel when [Config.jobs > 1]: sibling
    subtrees and the independent (class, sweep-kind) budget sweeps of a
    node become tasks on a {!Taskpool.Pool} of domains.  Determinism is
    preserved by construction — every sweep is a self-contained job whose
    inputs (child sets, platform, config) do not depend on scheduling,
    and the driver replays the candidates in the exact order the
    sequential driver would have considered them, so chosen solutions are
    bit-identical at any [jobs] value.  Statistics are likewise
    accumulated per job and merged in that canonical order.  The solve
    cache ([Config.solve_cache]) keeps this determinism because entries
    are single-flight: a given fingerprint is solved exactly once, and a
    hit returns precisely what the solve returned. *)

type result = {
  root_set : Solution.set;
  root : Solution.t;  (** best candidate whose main class is the platform's *)
  sets : (int, Solution.set) Hashtbl.t;  (** per AHTG node id *)
  stats : Ilp.Stats.t;
  wall_time_s : float;
  disk_cache : Cache.Store.counters option;
      (** persistent-cache traffic of this run ([None] without a store) *)
  solver : Config.solver;
      (** engine the run used ([Config.solver]); {!degradation} judges
          the root's tag against this mode's acceptable tier *)
}

(** Sequential candidate of [node] on class [cls]: children (if any) use
    their own sequential candidates of the same class. *)
let rec seq_candidate (sets : (int, Solution.set) Hashtbl.t)
    (pf : Platform.Desc.t) (node : Htg.Node.t) cls : Solution.t =
  let child_seq =
    Array.map
      (fun (c : Htg.Node.t) ->
        match Hashtbl.find_opt sets c.Htg.Node.id with
        | Some set -> Solution.seq_of set cls
        | None -> seq_candidate sets pf c cls)
      node.Htg.Node.children
  in
  {
    Solution.node_id = node.Htg.Node.id;
    main_class = cls;
    time_us = Htg.Node.seq_time_us pf ~cls node;
    extra_units = Array.make (Platform.Desc.num_classes pf) 0;
    degrade = Solution.Exact;
    kind = Solution.Seq child_seq;
  }

(* the three sweep kinds of one (node, class), in the order the
   sequential driver runs them *)
type sweep_kind = Ilppar | Split | Pipe

let kind_str = function Ilppar -> "ilppar" | Split -> "split" | Pipe -> "pipe"

let parallelize ?(cfg = Config.default) ?stats ?pool ?store ?memo
    (pf : Platform.Desc.t) (root_node : Htg.Node.t) : result =
  let t0 = Ilp.Clock.now_s () in
  let stats = match stats with Some s -> s | None -> Ilp.Stats.create () in
  (* persistent tier: a caller-supplied store is shared (batch mode),
     otherwise [cfg.cache_dir] makes this run open and close its own *)
  let owned_store, store =
    match store with
    | Some s -> (None, Some s)
    | None -> (
        match cfg.Config.cache_dir with
        | Some dir when cfg.Config.solve_cache ->
            let s = Cache.Store.open_ ~max_mb:cfg.Config.cache_max_mb ~dir () in
            (Some s, Some s)
        | Some _ | None -> (None, None))
  in
  (* the salt keys entries by platform (the formulation's structural
     fingerprint does not name the machine, but its coefficients come
     from it — salting makes the separation explicit and collision-proof) *)
  let backing =
    Option.map
      (fun s ->
        Cache.Store.backing s
          ~salt:(Cache.Store.salt ~context:(Platform.Desc.show pf)))
      store
  in
  (* a caller-supplied memo keeps the in-memory tier hot across runs
     (server mode); it must have been created against the same platform
     salt, which is why the server keys memos by platform description *)
  let cache =
    match memo with
    | Some m -> Some m
    | None ->
        if cfg.Config.solve_cache then Some (Ilp.Memo.create ?backing ())
        else None
  in
  let jobs =
    if cfg.Config.jobs = 0 then Domain.recommended_domain_count ()
    else max 1 cfg.Config.jobs
  in
  (* jobs = 1 stays entirely on the calling domain (no pool); a caller
     supplied pool is reused, otherwise one is created for this run *)
  let owned_pool, pool =
    if jobs <= 1 then (None, None)
    else
      match pool with
      | Some p -> (None, Some p)
      | None ->
          let p = Taskpool.Pool.create ~domains:jobs () in
          (Some p, Some p)
  in
  let nclasses = Platform.Desc.num_classes pf in
  let total_units = Platform.Desc.total_units pf in
  let sets : (int, Solution.set) Hashtbl.t = Hashtbl.create 64 in
  (* concurrent go() calls on sibling subtrees write their results as
     they finish; every access goes through the mutex *)
  let sets_mu = Mutex.create () in
  let find_set id =
    Mutex.lock sets_mu;
    let r = Hashtbl.find_opt sets id in
    Mutex.unlock sets_mu;
    r
  in
  let store_set id s =
    Mutex.lock sets_mu;
    Hashtbl.replace sets id s;
    Mutex.unlock sets_mu
  in
  (* as {!seq_candidate}, but reading the shared table under the lock *)
  let rec seq_cand (node : Htg.Node.t) cls : Solution.t =
    let child_seq =
      Array.map
        (fun (c : Htg.Node.t) ->
          match find_set c.Htg.Node.id with
          | Some set -> Solution.seq_of set cls
          | None -> seq_cand c cls)
        node.Htg.Node.children
    in
    {
      Solution.node_id = node.Htg.Node.id;
      main_class = cls;
      time_us = Htg.Node.seq_time_us pf ~cls node;
      extra_units = Array.make nclasses 0;
      degrade = Solution.Exact;
      kind = Solution.Seq child_seq;
    }
  in
  (* one self-contained sweep job; returns the kept candidates in
     discovery order plus the job's private statistics *)
  let sweep_job (node : Htg.Node.t) child_sets seq_class kind :
      Solution.t list * Ilp.Stats.t =
    (* a sweep job never suspends (pure solving), so the span is safe on
       whichever pool domain runs it *)
    Trace.span_k ~cat:"algo"
      (fun () ->
        Printf.sprintf "sweep.node%d.c%d.%s" node.Htg.Node.id seq_class
          (kind_str kind))
    @@ fun () ->
    let st = Ilp.Stats.create () in
    let cands =
      match kind with
      | Ilppar ->
          Portfolio.sweep ~stats:st ?cache ~total_units
            {
              Formulation.node;
              child_sets;
              pf;
              seq_class;
              budget = total_units;
              cfg;
            }
      | Split ->
          Loop_split.sweep ~stats:st ?cache ~total_units
            { Loop_split.node; pf; seq_class; budget = total_units; cfg }
      | Pipe ->
          Pipeline.sweep ~stats:st ?cache ~total_units
            { Pipeline.node; pf; seq_class; budget = total_units; cfg }
    in
    (cands, st)
  in
  let await_all p futs =
    List.map
      (fun f ->
        match Taskpool.Pool.await p f with Ok r -> r | Error e -> raise e)
      futs
  in
  let rec go (node : Htg.Node.t) : Solution.set =
    match find_set node.Htg.Node.id with
    | Some set -> set
    | None ->
        (* Algorithm 1 node visit.  Without a pool the visit runs
           uninterrupted on this domain and gets a proper span; with a
           pool it awaits child futures (suspension may migrate it across
           domains), so it is bracketed with instants instead. *)
        let traced = Trace.enabled () in
        let with_pool = Option.is_some pool in
        if traced && with_pool then
          Trace.instant ~cat:"algo" "node.visit"
            ~args:[ ("node", Trace.Int node.Htg.Node.id) ];
        let visit () =
        (* bottom-up: children first — in parallel when a pool exists *)
        let child_sets =
          match pool with
          | Some p when Array.length node.Htg.Node.children > 1 ->
              let futs =
                Array.map
                  (fun (c : Htg.Node.t) ->
                    let label =
                      if traced then Printf.sprintf "go.node%d" c.Htg.Node.id
                      else "task"
                    in
                    Taskpool.Pool.spawn ~label p (fun () -> go c))
                  node.Htg.Node.children
              in
              Array.map
                (fun f ->
                  match Taskpool.Pool.await p f with
                  | Ok s -> s
                  | Error e -> raise e)
                futs
          | _ -> Array.map go node.Htg.Node.children
        in
        let res : Solution.t list array =
          Array.init nclasses (fun c -> [ seq_cand node c ])
        in
        if Htg.Node.is_hierarchical node then begin
          (* independent (class, kind) sweeps, listed in the sequential
             driver's order: classes ascending; ILPPAR, then DOALL
             splitting, then pipelining *)
          (* The auxiliary sweeps (DOALL splitting, pipelining) run small
             dedicated ILPs; under [--solver=heuristic] — whose contract
             is "no branch & bound anywhere" — they are skipped and the
             heuristic fork/join candidates stand alone. *)
          let aux_ilps = cfg.Config.solver <> Config.Heuristic in
          let kinds =
            [ Ilppar ]
            @ (if
                 Htg.Node.is_doall node && cfg.Config.enable_loop_split
                 && aux_ilps
               then [ Split ]
               else [])
            @ if cfg.Config.enable_pipeline && aux_ilps then [ Pipe ] else []
          in
          let descs =
            List.concat_map
              (fun c -> List.map (fun k -> (c, k)) kinds)
              (List.init nclasses Fun.id)
          in
          let outs =
            match pool with
            | Some p when List.length descs > 1 ->
                await_all p
                  (List.map
                     (fun (c, k) ->
                       let label =
                         if traced then
                           Printf.sprintf "sweep.node%d.c%d.%s"
                             node.Htg.Node.id c (kind_str k)
                         else "task"
                       in
                       Taskpool.Pool.spawn ~label p (fun () ->
                           sweep_job node child_sets c k))
                     descs)
            | _ -> List.map (fun (c, k) -> sweep_job node child_sets c k) descs
          in
          (* deterministic merge: replay the candidates exactly as the
             sequential driver considers them *)
          List.iter2
            (fun (seq_class, _kind) (cands, st) ->
              Ilp.Stats.merge ~into:stats st;
              let seq_time = Htg.Node.seq_time_us pf ~cls:seq_class node in
              List.iter
                (fun (r : Solution.t) ->
                  if r.Solution.time_us *. cfg.Config.min_parallel_gain < seq_time
                  then res.(seq_class) <- r :: res.(seq_class))
                cands)
            descs outs
        end;
        let set =
          Array.map
            (fun cands ->
              Solution.prune ~max_keep:(cfg.Config.max_candidates_per_class + 1)
                cands)
            res
        in
        (* re-insert the sequential candidate if pruning dropped it *)
        let set =
          Array.mapi
            (fun c cands ->
              if List.exists Solution.is_sequential cands then cands
              else seq_cand node c :: cands)
            set
        in
        store_set node.Htg.Node.id set;
        set
        in
        if with_pool then begin
          let set = visit () in
          if traced then
            Trace.instant ~cat:"algo" "node.done"
              ~args:[ ("node", Trace.Int node.Htg.Node.id) ];
          set
        end
        else
          Trace.span_k ~cat:"algo"
            (fun () -> Printf.sprintf "node%d" node.Htg.Node.id)
            visit
  in
  let root_set =
    Fun.protect
      ~finally:(fun () ->
        Option.iter Taskpool.Pool.shutdown owned_pool;
        (* closing persists the index; counters stay readable after *)
        Option.iter Cache.Store.close owned_store)
      (fun () ->
        match pool with
        | Some p -> Taskpool.Pool.run p (fun () -> go root_node)
        | None -> go root_node)
  in
  let disk_cache = Option.map Cache.Store.counters store in
  (* the application's sequential context runs on the platform's main
     class; implement the best candidate tagged with it (Algorithm 1 l.4) *)
  let main_cls = pf.Platform.Desc.main_class in
  let root =
    match root_set.(main_cls) with
    | [] -> seq_candidate sets pf root_node main_cls
    | x :: rest ->
        List.fold_left
          (fun acc s -> if s.Solution.time_us < acc.Solution.time_us then s else acc)
          x rest
  in
  {
    root_set;
    root;
    sets;
    stats;
    wall_time_s = Ilp.Clock.now_s () -. t0;
    disk_cache;
    solver = cfg.Config.solver;
  }

(** Canonical digest of everything Algorithm 1 decided: the implemented
    root solution, the root candidate set, and every node's candidate
    set in node-id order.  Two runs chose bit-identical solutions iff
    their digests match — the batch CLI prints it per target and the
    serve protocol returns it per request, so cold/warm and
    CLI-vs-server runs can be diffed directly. *)
let digest (r : result) : string =
  let sets =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.sets []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  in
  Digest.to_hex
    (Digest.string (Marshal.to_string (r.root, r.root_set, sets) []))

(** The degraded-but-valid verdict shared by the CLI (exit 2) and the
    serve protocol (status [degraded]): [Some name] when the chosen
    solution carries a degradation tag worse than the solver mode's
    contract allows, or when the solver's degradation ladder engaged
    anywhere during the sweep (the candidate sets may then be missing
    solutions the full search would have found).  [name] is always the
    root's worst tag; a ladder-only verdict says so in parentheses.

    The acceptable tier is mode-dependent: [Ilp] promises proved optima
    ([Exact]); [Heuristic] promises heuristic answers by design, so the
    [Heuristic] tag is not a degradation there; [Portfolio] promises at
    worst an incumbent-quality answer, so [Heuristic] and [Incumbent]
    tags are its normal operating regime. *)
let degradation (r : result) : string option =
  let acceptable =
    Solution.degradation_rank
      (match r.solver with
      | Config.Ilp -> Solution.Exact
      | Config.Heuristic -> Solution.Heuristic
      | Config.Portfolio -> Solution.Incumbent)
  in
  let worst = Solution.worst_degradation r.root in
  let name = Solution.degradation_name worst in
  if Solution.degradation_rank worst > acceptable then Some name
  else if Ilp.Stats.ladder_engaged r.stats then
    Some (name ^ " (ladder engaged during the sweep)")
  else None

let degradation_message name =
  name
  ^ " — a solver search stopped before proving optimality (a limit ran \
     out or a fault was injected); the solution is valid but possibly \
     sub-optimal"
