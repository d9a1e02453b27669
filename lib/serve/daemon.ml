(** The resident parallelization server ([mpsoc-par serve]).

    One process, three kinds of actors:

    - the {b event loop} (the calling domain): a [select]-driven
      reactor over the Unix-domain (and optional TCP) listeners, all
      client connections, and a self-pipe.  It owns every socket —
      accepting, incremental frame decoding, response writes — and
      answers [status]/[health]/[drain] inline so they never queue
      behind solves.  It doubles as the supervisor's monitor, running
      {!Supervisor.check} every select tick;
    - the {b executor pool} ([executors] supervised domains): each
      worker pulls parallelize/execute jobs from the {!Admission} queue
      and runs them on its {e own} {!Taskpool.Pool} (one pool admits one
      external caller at a time) over shared, thread-safe solver state —
      one persistent {!Cache.Store} and one hot single-flight
      {!Ilp.Memo} per platform view — so a repeat request is answered
      from memory with zero fresh ILP solves.  A worker that crashes or
      wedges is abandoned and restarted by the {!Supervisor} (bounded
      budget, exponential backoff); its in-flight request is answered
      with a typed [internal]/[timeout] — one bad request never kills
      the daemon or other in-flight requests;
    - the {b watchdog contract}: each job carries an absolute deadline.
      A job whose deadline passes while queued is answered [timeout]
      without running; an [execute] job passes its remaining budget to
      the runtime watchdog, whose typed verdicts map onto response
      codes exactly as they map onto CLI exit codes.

    Determinism: workers never share a taskpool and the memo is
    single-flight, so each job's solve is the same computation a
    single-shot CLI run performs — responses stay bit-identical to CLI
    output even with concurrent executors.  The admission queue remains
    the single point of back-pressure.

    Shutdown (SIGTERM, SIGINT, or a [drain] request) is a graceful
    drain: listeners close, queued and in-flight jobs finish, new
    requests are rejected with the typed [draining] status, the cache
    index is flushed, and the trace/metrics exports are written.  A
    drain that exceeds the grace period force-stops with exit code 4
    (the timeout code). *)

module P = Protocol
module J = Trace_json

type config = {
  socket_path : string;
  tcp_port : int option;  (** also listen on 127.0.0.1:port *)
  queue_max : int;
  default_deadline_s : float;  (** applied when a request carries none; 0 = none *)
  drain_grace_s : float;  (** force-stop this long after drain starts *)
  executors : int;  (** supervised executor workers (≥ 1) *)
  restart_budget : int;  (** total executor restarts before the daemon drains *)
  wedge_grace_s : float;
      (** slack past a request deadline before its worker is declared
          wedged and abandoned *)
  flight_path : string option;
      (** flight-recorder dump file; [None] = [socket_path ^
          ".flight.jsonl"] *)
  memo_stall_s : float;
      (** reservation age before the monitor reports a single-flight
          memo stall (the zombie hazard) *)
  cfg : Parcore.Config.t;  (** solver/runtime knobs shared by every job *)
}

let default_config =
  {
    socket_path = "mpsoc-par.sock";
    tcp_port = None;
    queue_max = 64;
    default_deadline_s = 0.;
    drain_grace_s = 30.;
    executors = 2;
    restart_budget = 8;
    wedge_grace_s = 1.;
    flight_path = None;
    memo_stall_s = 5.;
    cfg = Parcore.Config.default;
  }

(* ---- jobs and shared state ----------------------------------------- *)

type job = {
  conn_id : int;
  rid : string;
      (** server-assigned request id (admission order + the client's
          correlation id when it sent one); the job's {!Trace.with_tag}
          tag on the executor, and the [request_id] body field *)
  req : P.request;
  submitted_s : float;
  deadline_abs : float;  (** absolute {!Trace.now_s} time; [infinity] = none *)
  fault_plan : Fault.plan option;
      (** armed domain-locally on the worker for this job only (chaos) *)
}

(** Cumulative server counters; every field is guarded by [smu] (the
    event loop reads them for [status] while the executor writes). *)
type stats = {
  smu : Mutex.t;
  started_s : float;
  lat : Latency.t;  (** end-to-end seconds per executor-completed request *)
  solver : Ilp.Stats.t;
  windows : (string, Obs_window.t) Hashtbl.t;
      (** sliding latency windows keyed ["all"], per op name, and per
          outcome class (["ok"] / ["error"]) — the [stats] op's payload *)
  statuses : (string, int) Hashtbl.t;  (** completions per status name *)
  w_jobs : int array;  (** per-executor-slot completed jobs *)
  w_busy_s : float array;  (** per-executor-slot seconds inside jobs *)
  mutable completed : int;
  mutable failed : int;  (** completed with a non-0/2 code *)
  mutable timed_out : int;  (** all [Timeout] responses (queue + solve) *)
  mutable timed_out_queue : int;  (** deadline expired while still queued *)
  mutable timed_out_solve : int;
      (** watchdog/wedge timeouts while the solve was running *)
}

(** Solver state shared across every request of the process lifetime.
    Everything here is safe to share across concurrent executor workers:
    the store takes its own lock and the memo is single-flight.  The
    taskpool is deliberately {e not} here — pools admit one external
    caller at a time, so each worker owns a private one. *)
type engine = {
  store : Cache.Store.t option;
  memos : (string, Ilp.Memo.t) Hashtbl.t;
      (** hot in-memory memo per platform view (the memo's disk backing
          is salted per view, so memos must not be shared across views) *)
  emu : Mutex.t;
}

let memo_for engine (view : Platform.Desc.t) : Ilp.Memo.t =
  let key = Platform.Desc.show view in
  Mutex.lock engine.emu;
  let m =
    match Hashtbl.find_opt engine.memos key with
    | Some m -> m
    | None ->
        let backing =
          Option.map
            (fun s ->
              Cache.Store.backing s ~salt:(Cache.Store.salt ~context:key))
            engine.store
        in
        let m = Ilp.Memo.create ?backing () in
        Hashtbl.replace engine.memos key m;
        m
  in
  Mutex.unlock engine.emu;
  m

(* ---- request execution (runs on the executor domain) --------------- *)

let resolve_platform_result (s : string) : (Platform.Desc.t, Mpsoc_error.t) result
    =
  match Platform.Presets.find s with
  | Some p -> Ok p
  | None ->
      if Sys.file_exists s then Platform.Parse.of_file_result s
      else
        Error
          (Mpsoc_error.make ~phase:Cli ~kind:Invalid_input ~location:s
             ~advice:"see `mpsoc-par list` for preset names"
             (Printf.sprintf
                "unknown platform %S (preset names: %s; or a description file)"
                s
                (String.concat ", " (List.map fst Platform.Presets.all))))

let approach_of_string = function
  | "hetero" | "heterogeneous" -> Ok Parcore.Parallelize.Heterogeneous
  | "homo" | "homogeneous" -> Ok Parcore.Parallelize.Homogeneous
  | s ->
      Error
        (Mpsoc_error.make ~phase:Cli ~kind:Invalid_input ~location:s
           (Printf.sprintf "unknown approach %S (approaches: hetero, homo)" s))

let num i = J.Num (float_of_int i)

(** The response fields every successful solve reports: enough for a
    client to diff against a single-shot CLI run ([digest], [speedup])
    and to see the warm-path contract ([ilps] = 0, [memo_hits] > 0 on a
    repeat request). *)
let solve_body ~name ~(out : Parcore.Parallelize.outcome) () =
  let algo = out.Parcore.Parallelize.algo in
  let st = algo.Parcore.Algorithm.stats in
  [
    ("target", J.Str name);
    ("approach", J.Str (Parcore.Parallelize.approach_name out.Parcore.Parallelize.approach));
    ("platform", J.Str out.Parcore.Parallelize.platform.Platform.Desc.name);
    ("speedup", J.Num (Parcore.Parallelize.speedup out));
    ("digest", J.Str (Parcore.Algorithm.digest algo));
    ("ilps", num st.Ilp.Stats.ilps);
    ("memo_hits", num st.Ilp.Stats.cache_hits);
    ("solve_time_s", J.Num st.Ilp.Stats.solve_time_s);
    ("wall_s", J.Num algo.Parcore.Algorithm.wall_time_s);
    ( "degradation",
      match Parcore.Algorithm.degradation algo with
      | Some d -> J.Str d
      | None -> J.Null );
  ]

let ( let* ) = Result.bind

let compile_result ~name src : (Minic.Ast.program, Mpsoc_error.t) result =
  match Minic.Frontend.compile src with
  | prog -> Ok prog
  | exception Minic.Frontend.Error e ->
      Error
        (Mpsoc_error.make ~phase:Frontend ~kind:Invalid_input ~location:name
           (Minic.Frontend.error_to_string e))

(** One parallelize/execute job on the shared engine, parallelizing
    inside the job on [pool] (the calling worker's private pool).  Every
    failure comes back as a typed protocol response, never an
    exception. *)
let run_job cfg engine stats ?pool (job : job) : P.response =
  let req = job.req in
  let id = req.id in
  let now = Trace.now_s () in
  if now > job.deadline_abs then
    (* [timeout_cause] lets the metrics split queue expiry from watchdog
       timeouts during a solve — two different capacity problems *)
    P.response ~id P.Timeout
      ~message:
        (Printf.sprintf
           "deadline expired after %.3f s in the admission queue"
           (now -. job.submitted_s))
      ~body:[ ("timeout_cause", J.Str "queue") ]
  else
    let solved =
      let* platform = resolve_platform_result req.P.platform in
      let* approach = approach_of_string req.P.approach in
      let* name, src = Benchsuite.Suite.resolve req.P.target in
      (* the memo must match the view Algorithm 1 will actually solve
         (homogeneous runs solve the class-blind view) *)
      let view =
        match approach with
        | Parcore.Parallelize.Heterogeneous -> platform
        | Parcore.Parallelize.Homogeneous ->
            Platform.Desc.homogeneous_view platform
      in
      (* a caller-supplied memo is used unconditionally by the flow, so
         honour [solve_cache = false] here: without it every request
         re-solves from scratch (the saturation bench relies on this) *)
      let memo =
        if cfg.Parcore.Config.solve_cache then Some (memo_for engine view)
        else None
      in
      let* prog = compile_result ~name src in
      let* out =
        Parcore.Parallelize.run_program_result ~cfg ?pool ?store:engine.store
          ?memo ~approach ~platform prog
      in
      Ok (name, prog, out)
    in
    match solved with
    | Error e -> P.of_error ~id e
    | Ok (name, prog, out) -> (
        let algo = out.Parcore.Parallelize.algo in
        Mutex.lock stats.smu;
        Ilp.Stats.merge ~into:stats.solver algo.Parcore.Algorithm.stats;
        Mutex.unlock stats.smu;
        let ok_status, message =
          match Parcore.Algorithm.degradation algo with
          | Some d -> (P.Degraded, Parcore.Algorithm.degradation_message d)
          | None -> (P.Ok_, "")
        in
        match req.P.op with
        | P.Parallelize ->
            P.response ~id ok_status ~message
              ~body:(solve_body ~name ~out ())
        | P.Execute -> (
            (* remaining budget goes to the runtime watchdog; an armed
               deadline always bounds the execution phase *)
            let timeout_s =
              if job.deadline_abs = infinity then cfg.Parcore.Config.timeout_s
              else Float.max 0.001 (job.deadline_abs -. Trace.now_s ())
            in
            match
              Runtime.Exec.run_result ~max_steps:cfg.Parcore.Config.max_steps
                ~timeout_s prog out.Parcore.Parallelize.htg
                algo.Parcore.Algorithm.root
            with
            | Error e -> P.of_error ~id e
            | Ok r ->
                let ret =
                  match r.Runtime.Exec.ret with
                  | Some v -> J.Str (Fmt.str "%a" Interp.Value.pp v)
                  | None -> J.Null
                in
                P.response ~id ok_status ~message
                  ~body:
                    (solve_body ~name ~out ()
                    @ [
                        ("result", ret);
                        ("steps", num r.Runtime.Exec.steps);
                        ( "exec_wall_s",
                          J.Num r.Runtime.Exec.metrics.Runtime.Metrics.wall_s
                        );
                        ( "exec_domains",
                          num r.Runtime.Exec.metrics.Runtime.Metrics.domains );
                      ]))
        | P.Status | P.Health | P.Drain | P.Stats | P.Dump ->
            assert false (* answered by the event loop *))

(* ---- the server ----------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  dec : P.decoder;
  outq : string Queue.t;  (** encoded frames awaiting write *)
  mutable out_off : int;  (** bytes of the head frame already written *)
  mutable closing : bool;  (** close once [outq] drains *)
}

(** Per-incarnation executor context, built on the worker domain. *)
type exec_ctx = {
  worker_pool : Taskpool.Pool.t option;
  worker_idx : int;  (** supervisor slot, for per-worker utilization *)
}

type t = {
  config : config;
  queue : job Admission.t;
  stats : stats;
  engine : engine;
  conns : (int, conn) Hashtbl.t;
  flight : Obs_flight.t;  (** always-on lifecycle ring (even disarmed) *)
  outbox : (int * P.response) Queue.t;  (** executors -> event loop *)
  omu : Mutex.t;
  mutable rid_seq : int;  (** admission counter for request ids (event loop) *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable listeners : Unix.file_descr list;
  mutable draining : bool;
  mutable drain_started_s : float;
  mutable sup : (exec_ctx, job, P.response) Supervisor.t option;
      (** [Some] for the whole event-loop lifetime (set right after
          construction; the hooks close over [t]) *)
  want_drain : bool Atomic.t;  (** set from the signal handler *)
  mutable exit_code : int;
}

let wake t =
  (* best-effort: the pipe being full already guarantees a wakeup *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let flight_file t =
  match t.config.flight_path with
  | Some p -> p
  | None -> t.config.socket_path ^ ".flight.jsonl"

(** Dump the flight ring (rare: crash/wedge/restart/exhaustion or an
    explicit [dump] op).  Each dump rewrites the whole file, so after a
    crash-then-restart sequence the file holds both events. *)
let dump_flight t ~reason =
  let path = flight_file t in
  match Obs_flight.dump t.flight ~path with
  | Ok n ->
      Fmt.epr "serve: flight recorder dumped %d event(s) to %s (%s)@." n path
        reason;
      Ok n
  | Error m ->
      Fmt.epr "serve: flight recorder dump to %s failed: %s@." path m;
      Error m

(** Aggregate hit/miss/stall/cancel totals over the per-platform-view
    memos. *)
let memo_totals t =
  Mutex.lock t.engine.emu;
  let totals =
    Hashtbl.fold
      (fun _ m (h, d, mi, st, ca) ->
        ( h + Ilp.Memo.hits m,
          d + Ilp.Memo.disk_hits m,
          mi + Ilp.Memo.misses m,
          st + Ilp.Memo.stall_count m,
          ca + Ilp.Memo.cancelled_count m ))
      t.engine.memos (0, 0, 0, 0, 0)
  in
  Mutex.unlock t.engine.emu;
  totals

let server_json t : J.t =
  let q = Admission.counters t.queue in
  Mutex.lock t.stats.smu;
  let completed = t.stats.completed
  and failed = t.stats.failed
  and timed_out = t.stats.timed_out
  and timed_out_queue = t.stats.timed_out_queue
  and timed_out_solve = t.stats.timed_out_solve
  and lat_summary = Latency.summarize t.stats.lat
  and lat_hist = Latency.histogram_json t.stats.lat in
  Mutex.unlock t.stats.smu;
  let _, _, _, memo_stalls, memo_cancelled = memo_totals t in
  J.Obj
    ([
       ("uptime_s", J.Num (Trace.now_s () -. t.stats.started_s));
       ("state", J.Str (if t.draining then "draining" else "accepting"));
       ("queue_depth", num (Admission.depth t.queue));
       ("queue_max", num t.config.queue_max);
       ("connections", num (Hashtbl.length t.conns));
       ("accepted", num q.Admission.accepted);
       ("rejected_overloaded", num q.Admission.rej_overloaded);
       ("rejected_draining", num q.Admission.rej_draining);
       ("completed", num completed);
       ("failed", num failed);
       ("timed_out", num timed_out);
       ("timed_out_queue", num timed_out_queue);
       ("timed_out_solve", num timed_out_solve);
       ("memo_stalls", num memo_stalls);
       ("memo_cancelled", num memo_cancelled);
       ("latency", Latency.summary_json lat_summary);
       ("latency_histogram_ms", lat_hist);
     ]
    @
    match t.sup with
    | None -> []
    | Some sup ->
        [
          ("executors", Supervisor.status_json sup);
          ("active_workers", num (Supervisor.active sup));
          ("executor_restarts", num (Supervisor.restarts sup));
          ("executor_crashes", num (Supervisor.crashes sup));
          ("executor_wedges", num (Supervisor.wedges sup));
        ])

(* ---- the stats op (schema mpsoc-par/stats/v1) ----------------------- *)

let stats_schema = "mpsoc-par/stats/v1"

(** Per-worker supervisor rows joined with the utilization tallies. *)
let workers_json t sup uptime_s : J.t =
  Mutex.lock t.stats.smu;
  let jobs = Array.copy t.stats.w_jobs
  and busy = Array.copy t.stats.w_busy_s in
  Mutex.unlock t.stats.smu;
  match Supervisor.status_json sup with
  | J.List rows ->
      J.List
        (List.map
           (function
             | J.Obj fields as row -> (
                 match List.assoc_opt "worker" fields with
                 | Some (J.Num n)
                   when int_of_float n >= 0
                        && int_of_float n < Array.length jobs ->
                     let i = int_of_float n in
                     let u =
                       if uptime_s > 0. then busy.(i) /. uptime_s else 0.
                     in
                     J.Obj
                       (fields
                       @ [
                           ("jobs", num jobs.(i));
                           ("busy_s", J.Num busy.(i));
                           ("utilization", J.Num u);
                         ])
                 | _ -> row)
             | row -> row)
           rows)
  | other -> other

(** The live-telemetry snapshot, answered inline by the event loop so it
    is available even while every executor is mid-solve. *)
let stats_body t : (string * J.t) list =
  let now = Trace.now_s () in
  let uptime_s = now -. t.stats.started_s in
  let q = Admission.counters t.queue in
  Mutex.lock t.stats.smu;
  let completed = t.stats.completed
  and failed = t.stats.failed
  and timed_out = t.stats.timed_out
  and timed_out_queue = t.stats.timed_out_queue
  and timed_out_solve = t.stats.timed_out_solve
  and statuses =
    Hashtbl.fold (fun k v acc -> (k, num v) :: acc) t.stats.statuses []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  and window_keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.stats.windows []
    |> List.sort compare
  in
  Mutex.unlock t.stats.smu;
  let window key =
    Mutex.lock t.stats.smu;
    let w = Hashtbl.find_opt t.stats.windows key in
    Mutex.unlock t.stats.smu;
    match w with
    | Some w -> Obs_window.windows_json w ~now
    | None -> J.Null
  in
  let mh, md, mm, mst, mca = memo_totals t in
  let hit_rate =
    let tot = float_of_int (mh + md + mm) in
    if tot = 0. then 0. else float_of_int (mh + md) /. tot
  in
  [
    ("stats_schema", J.Str stats_schema);
    ("uptime_s", J.Num uptime_s);
    ("state", J.Str (if t.draining then "draining" else "accepting"));
    ( "queue",
      J.Obj
        [
          ("depth", num (Admission.depth t.queue));
          ("max", num t.config.queue_max);
        ] );
    ( "counters",
      J.Obj
        [
          ("accepted", num q.Admission.accepted);
          ("rejected_overloaded", num q.Admission.rej_overloaded);
          ("rejected_draining", num q.Admission.rej_draining);
          ("completed", num completed);
          ("failed", num failed);
          ("timed_out", num timed_out);
          ("timed_out_queue", num timed_out_queue);
          ("timed_out_solve", num timed_out_solve);
        ] );
    ("statuses", J.Obj statuses);
    ( "latency",
      J.Obj
        (("all", window "all")
        :: List.filter_map
             (fun k -> if k = "all" then None else Some (k, window k))
             window_keys) );
    ( "memo",
      J.Obj
        [
          ("hits", num mh);
          ("disk_hits", num md);
          ("misses", num mm);
          ("hit_rate", J.Num hit_rate);
          ("stalls", num mst);
          ("cancelled", num mca);
        ] );
  ]
  @ (match t.engine.store with
    | Some s -> [ ("cache", Observe.cache_json (Cache.Store.counters s)) ]
    | None -> [])
  @ (match t.sup with
    | None -> []
    | Some sup ->
        [
          ("workers", workers_json t sup uptime_s);
          ("executor_restarts", num (Supervisor.restarts sup));
          ("executor_crashes", num (Supervisor.crashes sup));
          ("executor_wedges", num (Supervisor.wedges sup));
        ])
  @ [
      ( "flight",
        J.Obj
          [
            ("size", num (Obs_flight.size t.flight));
            ("recorded", num (Obs_flight.recorded t.flight));
            ("capacity", num (Obs_flight.capacity t.flight));
            ("path", J.Str (flight_file t));
          ] );
      ("trace", J.Obj [ ("armed", J.Bool (Trace.enabled ())) ]);
    ]

let send_response (c : conn) (r : P.response) =
  Queue.push (P.frame (J.to_string (P.response_json r))) c.outq

let close_conn t (c : conn) =
  Hashtbl.remove t.conns c.cid;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(** Write as much queued output as the socket accepts right now. *)
let rec flush_conn t (c : conn) =
  match Queue.peek_opt c.outq with
  | None -> if c.closing then close_conn t c
  | Some s -> (
      let len = String.length s - c.out_off in
      match Unix.write_substring c.fd s c.out_off len with
      | n when n = len ->
          ignore (Queue.pop c.outq);
          c.out_off <- 0;
          flush_conn t c
      | n -> c.out_off <- c.out_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error _ -> close_conn t c)

let begin_drain t ~reason =
  if not t.draining then begin
    t.draining <- true;
    t.drain_started_s <- Trace.now_s ();
    Admission.drain t.queue;
    Trace.instant ~cat:"server" "drain" ~args:[ ("reason", Trace.Str reason) ];
    Obs_flight.record t.flight "drain" ~fields:[ ("reason", J.Str reason) ];
    Fmt.epr "serve: draining (%s): %d queued job(s), %d connection(s)@."
      reason
      (Admission.depth t.queue)
      (Hashtbl.length t.conns);
    (* stop accepting: close the listeners and remove the socket file so
       new clients fail fast instead of queueing on a dying server *)
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
    t.listeners <- [];
    (try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ())
  end

(** One decoded request frame from connection [c]. *)
let handle_request t (c : conn) payload =
  match P.parse_request payload with
  | Error m ->
      (* protocol error: answer once, then drop the connection — after
         a framing/JSON error the stream has no trustworthy boundary *)
      send_response c (P.response ~id:"" P.Invalid ~message:m);
      c.closing <- true
  | Ok req -> (
      match req.P.op with
      | P.Status ->
          send_response c
            (P.response ~id:req.P.id P.Ok_ ~body:[ ("server", server_json t) ])
      | P.Health ->
          (* liveness is implied by the answer; readiness means new work
             would actually run: admission open and ≥ 1 healthy worker *)
          let active =
            match t.sup with Some s -> Supervisor.active s | None -> 0
          in
          send_response c
            (P.response ~id:req.P.id P.Ok_
               ~body:
                 ([
                    ("live", J.Bool true);
                    ("ready", J.Bool ((not t.draining) && active > 0));
                    ( "state",
                      J.Str (if t.draining then "draining" else "accepting")
                    );
                    ("queue_depth", num (Admission.depth t.queue));
                    ("active_workers", num active);
                  ]
                 @
                 match t.sup with
                 | None -> []
                 | Some s ->
                     [
                       ("executors", Supervisor.status_json s);
                       ("restarts", num (Supervisor.restarts s));
                       ("crashes", num (Supervisor.crashes s));
                       ("wedges", num (Supervisor.wedges s));
                       ("exhausted", J.Bool (Supervisor.exhausted s));
                     ]))
      | P.Drain ->
          begin_drain t ~reason:"drain request";
          send_response c
            (P.response ~id:req.P.id P.Ok_
               ~body:[ ("state", J.Str "draining") ])
      | P.Stats ->
          send_response c (P.response ~id:req.P.id P.Ok_ ~body:(stats_body t))
      | P.Dump -> (
          match dump_flight t ~reason:"dump request" with
          | Ok n ->
              send_response c
                (P.response ~id:req.P.id P.Ok_
                   ~body:
                     [
                       ("path", J.Str (flight_file t)); ("events", num n);
                     ])
          | Error m ->
              send_response c (P.response ~id:req.P.id P.Internal ~message:m))
      | P.Parallelize | P.Execute -> (
          match
            if req.P.fault_plan = "" then Ok None
            else Result.map Option.some (Fault.of_spec req.P.fault_plan)
          with
          | Error m ->
              send_response c
                (P.response ~id:req.P.id P.Invalid
                   ~message:("bad fault_plan: " ^ m))
          | Ok fault_plan -> (
          let now = Trace.now_s () in
          let deadline_s =
            if req.P.deadline_s > 0. then req.P.deadline_s
            else t.config.default_deadline_s
          in
          (* server-assigned request id: admission order, qualified by
             the client's correlation id when it sent one.  Assigned on
             the event loop, so it is a total order over admissions. *)
          t.rid_seq <- t.rid_seq + 1;
          let rid =
            if req.P.id = "" then Printf.sprintf "r%d" t.rid_seq
            else Printf.sprintf "%s#r%d" req.P.id t.rid_seq
          in
          let job =
            {
              conn_id = c.cid;
              rid;
              req;
              submitted_s = now;
              deadline_abs =
                (if deadline_s > 0. then now +. deadline_s else infinity);
              fault_plan;
            }
          in
          match Admission.submit t.queue ~client:c.cid job with
          | Admission.Accepted ->
              Trace.instant ~cat:"server" "accept"
                ~args:
                  [
                    ("req", Trace.Str rid);
                    ("target", Trace.Str req.P.target);
                    ("queue_depth", Trace.Int (Admission.depth t.queue));
                  ];
              Obs_flight.record t.flight "admit"
                ~fields:
                  [
                    ("rid", J.Str rid);
                    ("op", J.Str (P.op_name req.P.op));
                    ("target", J.Str req.P.target);
                    ("conn", num c.cid);
                    ("queue_depth", num (Admission.depth t.queue));
                  ]
          | Admission.Overloaded ->
              Trace.instant ~cat:"server" "reject.overloaded";
              Obs_flight.record t.flight "reject.overloaded"
                ~fields:[ ("rid", J.Str rid); ("conn", num c.cid) ];
              send_response c
                (P.response ~id:req.P.id P.Overloaded
                   ~message:
                     (Printf.sprintf
                        "admission queue full (%d jobs); retry later"
                        t.config.queue_max))
          | Admission.Draining ->
              Trace.instant ~cat:"server" "reject.draining";
              Obs_flight.record t.flight "reject.draining"
                ~fields:[ ("rid", J.Str rid); ("conn", num c.cid) ];
              send_response c
                (P.response ~id:req.P.id P.Draining
                   ~message:"server is draining; no new jobs accepted"))))

let handle_readable t (c : conn) =
  let buf = Bytes.create 65536 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> close_conn t c
  | n ->
      P.feed c.dec (Bytes.sub_string buf 0 n);
      let rec drain_frames () =
        if not c.closing then
          match P.next c.dec with
          | `Frame payload ->
              handle_request t c payload;
              drain_frames ()
          | `Awaiting -> ()
          | `Error m ->
              send_response c (P.response ~id:"" P.Invalid ~message:m);
              c.closing <- true
      in
      drain_frames ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t c

(* ---- the supervised executor pool ----------------------------------- *)

(** Which phase a [Timeout] response timed out in: ["queue"] (deadline
    expired before any worker picked the job up) or ["solve"] (watchdog
    or wedge while running) — two different capacity problems. *)
let timeout_cause (resp : P.response) =
  match List.assoc_opt "timeout_cause" resp.P.body with
  | Some (J.Str s) -> s
  | _ -> "solve"

(* call with [smu] held *)
let win t key =
  match Hashtbl.find_opt t.stats.windows key with
  | Some w -> w
  | None ->
      let w = Obs_window.create () in
      Hashtbl.replace t.stats.windows key w;
      w

let record_result t (job : job) (resp : P.response) =
  let now = Trace.now_s () in
  let dt = now -. job.submitted_s in
  let code = P.status_code resp.P.status in
  let sname = P.status_name resp.P.status in
  Mutex.lock t.stats.smu;
  t.stats.completed <- t.stats.completed + 1;
  (match code with 0 | 2 -> () | _ -> t.stats.failed <- t.stats.failed + 1);
  if resp.P.status = P.Timeout then begin
    t.stats.timed_out <- t.stats.timed_out + 1;
    match timeout_cause resp with
    | "queue" -> t.stats.timed_out_queue <- t.stats.timed_out_queue + 1
    | _ -> t.stats.timed_out_solve <- t.stats.timed_out_solve + 1
  end;
  Latency.record t.stats.lat dt;
  let outcome = if code = 0 || code = 2 then "ok" else "error" in
  List.iter
    (fun key -> Obs_window.record (win t key) ~now dt)
    [ "all"; P.op_name job.req.P.op; outcome ];
  Hashtbl.replace t.stats.statuses sname
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.stats.statuses sname));
  Mutex.unlock t.stats.smu;
  Obs_flight.record t.flight "complete"
    ~fields:
      [
        ("rid", J.Str job.rid); ("status", J.Str sname); ("dt_s", J.Num dt);
      ]

let describe_job (job : job) =
  Printf.sprintf "req.%s.%s" (P.op_name job.req.P.op) job.req.P.target

(** Run one job on an executor worker.  The [serve.exec] probe sits
    {e inside} the job's domain-local fault plan but {e outside} the
    per-job exception guard: an injected [Raise] there escapes and kills
    the worker (exercising supervisor crash-restart) while any flow bug
    is still converted to a typed [internal] response. *)
let exec_job t (ctx : exec_ctx) (job : job) : P.response =
  let t_start = Trace.now_s () in
  Obs_flight.record t.flight "start"
    ~fields:[ ("rid", J.Str job.rid); ("worker", num ctx.worker_idx) ];
  let guarded () =
    Trace.span_k ~cat:"server"
      (fun () -> describe_job job)
      (fun () ->
        match run_job t.config.cfg t.engine t.stats ?pool:ctx.worker_pool job with
        | r -> r
        | exception e ->
            (* a bug in the flow must not kill the worker *)
            P.response ~id:job.req.P.id P.Internal
              ~message:("uncaught exception: " ^ Printexc.to_string e))
  in
  (* the request id tags every span/instant the solve emits on this
     domain (and, via the taskpool, on pool workers it fans out to); an
     injected crash escapes through [with_tag], which restores the tag *)
  let resp =
    Trace.with_tag job.rid (fun () ->
        match job.fault_plan with
        | None ->
            Fault.point "serve.exec";
            guarded ()
        | Some plan ->
            Fault.with_plan_local plan (fun () ->
                Fault.point "serve.exec";
                guarded ()))
  in
  let t_done = Trace.now_s () in
  Mutex.lock t.stats.smu;
  if ctx.worker_idx >= 0 && ctx.worker_idx < Array.length t.stats.w_jobs
  then begin
    t.stats.w_jobs.(ctx.worker_idx) <- t.stats.w_jobs.(ctx.worker_idx) + 1;
    t.stats.w_busy_s.(ctx.worker_idx) <-
      t.stats.w_busy_s.(ctx.worker_idx) +. (t_done -. t_start)
  end;
  Mutex.unlock t.stats.smu;
  (* measured on the response body before the timing fields are appended
     — a lower bound, but the event loop's actual write is the same
     serialization plus framing *)
  let serialize_s =
    let s0 = Trace.now_s () in
    ignore (J.to_string (P.response_json resp));
    Trace.now_s () -. s0
  in
  {
    resp with
    P.body =
      resp.P.body
      @ [
          ("request_id", J.Str job.rid);
          ( "server_timing",
            J.Obj
              [
                ("queue_wait_s", J.Num (t_start -. job.submitted_s));
                ("solve_s", J.Num (t_done -. t_start));
                ("serialize_s", J.Num serialize_s);
              ] );
        ];
  }

(** Per-worker taskpool size: the configured [jobs] knob applies to each
    worker's private pool (workers never share one). *)
let worker_jobs cfg =
  if cfg.Parcore.Config.jobs = 0 then Domain.recommended_domain_count ()
  else max 1 cfg.Parcore.Config.jobs

let supervisor_hooks t : (exec_ctx, job, P.response) Supervisor.hooks =
  {
    Supervisor.take = (fun () -> Admission.take t.queue);
    worker_init =
      (fun idx ->
        let jobs_n = worker_jobs t.config.cfg in
        {
          worker_pool =
            (if jobs_n > 1 then Some (Taskpool.Pool.create ~domains:jobs_n ())
             else None);
          worker_idx = idx;
        });
    worker_exit = (fun ctx -> Option.iter Taskpool.Pool.shutdown ctx.worker_pool);
    run = (fun ctx job -> exec_job t ctx job);
    deadline = (fun job -> job.deadline_abs);
    answer =
      (fun job resp ->
        record_result t job resp;
        Mutex.lock t.omu;
        Queue.push (job.conn_id, resp) t.outbox;
        Mutex.unlock t.omu;
        wake t);
    crashed =
      (fun job e ->
        P.response ~id:job.req.P.id P.Internal
          ~message:
            ("executor worker crashed on this request: "
            ^ Printexc.to_string e)
          ~body:[ ("request_id", J.Str job.rid) ]);
    wedged =
      (fun job ->
        (* The abandoned worker may die holding single-flight memo
           reservations (its domain is tagged with this request's id);
           peers blocked on those keys would wait forever.  Cancelling
           the request's reservations wakes them to re-solve.  If the
           zombie later wakes and fills anyway, it publishes the same
           deterministic solution — harmless. *)
        Mutex.lock t.engine.emu;
        let cancelled =
          Hashtbl.fold
            (fun _ m acc -> acc + Ilp.Memo.cancel_owned m ~req:job.rid)
            t.engine.memos 0
        in
        Mutex.unlock t.engine.emu;
        if cancelled > 0 then begin
          Obs_flight.record t.flight "memo.cancel"
            ~fields:
              [
                ("request_id", J.Str job.rid);
                ("reservations", num cancelled);
              ];
          Fmt.epr
            "serve: released %d memo reservation(s) held by abandoned \
             request %s@."
            cancelled job.rid
        end;
        P.response ~id:job.req.P.id P.Timeout
          ~message:
            "executor worker wedged past the request deadline and was \
             abandoned"
          ~body:
            [
              ("timeout_cause", J.Str "solve");
              ("request_id", J.Str job.rid);
              ("memo_cancelled", num cancelled);
            ]);
    on_exhausted =
      (fun () ->
        t.exit_code <- 1;
        begin_drain t ~reason:"executor restart budget exhausted");
    describe = describe_job;
    wake = (fun () -> wake t);
    note =
      (fun ~event ~worker ->
        Obs_flight.record t.flight event ~fields:[ ("worker", num worker) ];
        (* a crash/wedge/restart is exactly when the ring's history is
           worth keeping; each dump rewrites the file, so the final one
           (after the restart) holds the whole sequence *)
        match event with
        | "executor.crash" | "executor.wedge" | "executor.restart"
        | "executor.exhausted" ->
            ignore (dump_flight t ~reason:event)
        | _ -> ());
  }

(* ---- listeners ------------------------------------------------------ *)

(** [true] iff something is still accepting connections on [path].  A
    stale socket file from a crashed daemon refuses the connect
    ([ECONNREFUSED]); a live daemon accepts it.  Anything else (e.g. a
    permission error) counts as live — when in doubt, do not clobber. *)
let socket_live path =
  let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
          false
      | exception Unix.Unix_error _ -> true)

let listen_unix path =
  (* replace a stale socket file from a previous crash, but never
     clobber a live daemon's socket or anything that is not a socket *)
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      if socket_live path then
        Mpsoc_error.raise_error ~phase:Cli ~kind:Invalid_input ~location:path
          ~advice:
            "stop the running daemon first, or serve on a different --socket"
          "another daemon is already listening on this socket"
      else Unix.unlink path
  | _ ->
      Mpsoc_error.raise_error ~phase:Cli ~kind:Invalid_input ~location:path
        "socket path exists and is not a socket"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

(* ---- main entry ------------------------------------------------------ *)

let run (config : config) : int =
  let cfg = config.cfg in
  let armed =
    cfg.Parcore.Config.trace_file <> None
    || cfg.Parcore.Config.metrics_file <> None
    || cfg.Parcore.Config.profile
  in
  if armed then Trace.start ();
  let store =
    match cfg.Parcore.Config.cache_dir with
    | None -> None
    | Some dir ->
        Some
          (Cache.Store.open_ ~max_mb:cfg.Parcore.Config.cache_max_mb ~dir ())
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      config;
      queue = Admission.create ~max:config.queue_max;
      stats =
        {
          smu = Mutex.create ();
          started_s = Trace.now_s ();
          lat = Latency.create ();
          solver = Ilp.Stats.create ();
          windows = Hashtbl.create 8;
          statuses = Hashtbl.create 8;
          w_jobs = Array.make (max 1 config.executors) 0;
          w_busy_s = Array.make (max 1 config.executors) 0.;
          completed = 0;
          failed = 0;
          timed_out = 0;
          timed_out_queue = 0;
          timed_out_solve = 0;
        };
      engine = { store; memos = Hashtbl.create 4; emu = Mutex.create () };
      conns = Hashtbl.create 16;
      flight = Obs_flight.create ();
      outbox = Queue.create ();
      omu = Mutex.create ();
      rid_seq = 0;
      wake_r;
      wake_w;
      listeners = [];
      draining = false;
      drain_started_s = 0.;
      sup = None;
      want_drain = Atomic.make false;
      exit_code = 0;
    }
  in
  (* fatal-path cleanup: whatever way the process exits — force-stop,
     uncaught exception, Stdlib.exit from a signal-less crash — the
     socket file must not outlive us as a live-looking stub and the
     cache index must hit disk.  Normal shutdown runs this inline and
     the [at_exit] copy becomes a no-op. *)
  let cleanup_done = ref false in
  let cleanup () =
    if not !cleanup_done then begin
      cleanup_done := true;
      (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
      Option.iter
        (fun s -> try Cache.Store.close s with _ -> ())
        t.engine.store
    end
  in
  t.listeners <-
    (listen_unix config.socket_path
    :: (match config.tcp_port with
       | Some port -> [ listen_tcp port ]
       | None -> []));
  (* registered only after [listen_unix] succeeded: if we refused to
     clobber a live daemon's socket above, exiting must not unlink it *)
  at_exit cleanup;
  (* SIGTERM/SIGINT request a drain; the handler only flips an atomic
     and pokes the pipe, everything else happens on the event loop *)
  let on_signal _ =
    Atomic.set t.want_drain true;
    wake t
  in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fmt.epr "serve: listening on %s%s (%d executor(s) x jobs %d, queue %d%s)@."
    config.socket_path
    (match config.tcp_port with
    | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
    | None -> "")
    (max 1 config.executors)
    (worker_jobs cfg) config.queue_max
    (match cfg.Parcore.Config.cache_dir with
    | Some d -> ", cache " ^ d
    | None -> "");
  let sup =
    Supervisor.start
      {
        Supervisor.workers = config.executors;
        restart_budget = config.restart_budget;
        backoff_base_s = Supervisor.default_config.Supervisor.backoff_base_s;
        backoff_cap_s = Supervisor.default_config.Supervisor.backoff_cap_s;
        wedge_grace_s = config.wedge_grace_s;
      }
      (supervisor_hooks t)
  in
  t.sup <- Some sup;
  let next_cid = ref 0 in
  (* ---- event loop ---- *)
  let finished () =
    t.draining
    && Supervisor.drained sup
    && Mutex.protect t.omu (fun () -> Queue.is_empty t.outbox)
    && Hashtbl.fold (fun _ c acc -> acc && Queue.is_empty c.outq) t.conns true
  in
  (* with every worker gone for good (budget exhausted) nobody will ever
     take the remaining queued jobs: answer them [internal] so the drain
     can complete instead of timing out the grace period.  [take] does
     not block here — the drain valve is closed, so an empty queue
     returns [None] immediately. *)
  let flush_orphans () =
    if t.draining && Supervisor.exhausted sup && Supervisor.active sup = 0 then
      let rec drop () =
        match Admission.take t.queue with
        | None -> ()
        | Some job ->
            let resp =
              P.response ~id:job.req.P.id P.Internal
                ~message:
                  "no executor workers left (restart budget exhausted)"
            in
            record_result t job resp;
            Mutex.lock t.omu;
            Queue.push (job.conn_id, resp) t.outbox;
            Mutex.unlock t.omu;
            drop ()
      in
      drop ()
  in
  let deliver_outbox () =
    let pending =
      Mutex.protect t.omu (fun () ->
          let l = List.of_seq (Queue.to_seq t.outbox) in
          Queue.clear t.outbox;
          l)
    in
    List.iter
      (fun (cid, resp) ->
        match Hashtbl.find_opt t.conns cid with
        | Some c -> send_response c resp
        | None -> () (* client went away; drop the response *))
      pending
  in
  (try
     while not (finished ()) do
       if Atomic.get t.want_drain then begin_drain t ~reason:"signal";
       (* monitor pass: wedge/crash detection and backoff-gated restarts *)
       Supervisor.check sup ~now:(Trace.now_s ());
       (* zombie-reservation watch: a wedged worker holds its
          single-flight memo reservation forever while peers block on
          it — surface each stalled reservation once, naming the owner *)
       let memos =
         Mutex.protect t.engine.emu (fun () ->
             Hashtbl.fold (fun _ m acc -> m :: acc) t.engine.memos [])
       in
       List.iter
         (fun m ->
           List.iter
             (fun (s : Ilp.Memo.stall) ->
               Fmt.epr
                 "serve: memo reservation stalled %.1f s: key %s held by %s@."
                 s.Ilp.Memo.age_s s.Ilp.Memo.key s.Ilp.Memo.s_owner;
               Obs_flight.record t.flight "memo.stall"
                 ~fields:
                   [
                     ("key", J.Str s.Ilp.Memo.key);
                     ("owner", J.Str s.Ilp.Memo.s_owner);
                     ("age_s", J.Num s.Ilp.Memo.age_s);
                   ])
             (Ilp.Memo.stalled ~threshold_s:config.memo_stall_s m
                ~now:(Trace.now_s ())))
         memos;
       flush_orphans ();
       (* force-stop a drain that overstays the grace period *)
       if
         t.draining
         && Trace.now_s () -. t.drain_started_s > config.drain_grace_s
       then begin
         Fmt.epr "serve: drain exceeded %.1f s grace; force-stopping@."
           config.drain_grace_s;
         t.exit_code <- 4;
         raise Exit
       end;
       let reads =
         (t.wake_r :: t.listeners)
         @ Hashtbl.fold (fun _ c acc -> c.fd :: acc) t.conns []
       in
       let writes =
         Hashtbl.fold
           (fun _ c acc ->
             if Queue.is_empty c.outq then acc else c.fd :: acc)
           t.conns []
       in
       match Unix.select reads writes [] 0.5 with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | readable, writable, _ ->
           if List.mem t.wake_r readable then begin
             let b = Bytes.create 256 in
             try
               while Unix.read t.wake_r b 0 256 > 0 do
                 ()
               done
             with Unix.Unix_error _ -> ()
           end;
           deliver_outbox ();
           List.iter
             (fun lfd ->
               if List.mem lfd readable then
                 match Unix.accept lfd with
                 | fd, _ ->
                     Unix.set_nonblock fd;
                     incr next_cid;
                     let c =
                       {
                         fd;
                         cid = !next_cid;
                         dec = P.decoder ();
                         outq = Queue.create ();
                         out_off = 0;
                         closing = false;
                       }
                     in
                     Hashtbl.replace t.conns c.cid c;
                     Trace.instant ~cat:"server" "connect"
                       ~args:[ ("conn", Trace.Int c.cid) ]
                 | exception Unix.Unix_error _ -> ())
             t.listeners;
           (* snapshot: handlers mutate the table *)
           let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
           List.iter
             (fun c -> if List.mem c.fd readable then handle_readable t c)
             cs;
           let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
           List.iter
             (fun c ->
               if
                 List.mem c.fd writable
                 || (not (Queue.is_empty c.outq))
                 || c.closing
               then flush_conn t c)
             cs
     done
   with Exit -> ());
  (* ---- shutdown ---- *)
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.conns;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  (* join workers that exited; a force-stopped drain may leave some
     mid-solve (or wedged asleep) — those are leaked, joining them would
     hang past the grace deadline *)
  Supervisor.stop sup;
  cleanup ();
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  Sys.set_signal Sys.sigpipe prev_pipe;
  let q = Admission.counters t.queue in
  Fmt.epr
    "serve: stopped after %.1f s — %d accepted, %d completed, %d rejected \
     (%d overloaded, %d draining), %d executor restart(s)@."
    (Trace.now_s () -. t.stats.started_s)
    q.Admission.accepted t.stats.completed
    (q.Admission.rej_overloaded + q.Admission.rej_draining)
    q.Admission.rej_overloaded q.Admission.rej_draining
    (Supervisor.restarts sup);
  if armed then begin
    let wall_s = Trace.now_s () -. t.stats.started_s in
    match Trace.stop () with
    | None -> ()
    | Some c ->
        Option.iter
          (fun path -> Trace_chrome.write ~path c)
          cfg.Parcore.Config.trace_file;
        Option.iter
          (fun path ->
            Observe.write_json ~path
              (Observe.metrics_doc ~generated_by:"mpsoc-par serve"
                 ~phases:(Observe.phases_of_events c.Trace.events)
                 ?cache:(Option.map Cache.Store.counters t.engine.store)
                 ~trace:c
                 ~sections:[ ("server", server_json t) ]
                 ~wall_s t.stats.solver))
          cfg.Parcore.Config.metrics_file;
        if cfg.Parcore.Config.profile then
          Fmt.epr "%t@." (fun ppf ->
              Observe.profile_table ppf ~wall_s ~dropped:c.Trace.dropped
                ~events:c.Trace.events t.stats.solver)
  end;
  t.exit_code
