(** serve-mixed: the real [serve] binary as a child process, driven by an
    open-loop client written here on [Serve.Protocol] frames.

    One thread, one pipelined connection: each request is sent at its
    due time whatever is still outstanding, and its latency runs from
    the due time to its response, so a stall shows up as latency of the
    requests behind it rather than as a later send.  There are no
    retries; a refused or failed request counts as over every latency
    limit. *)

module P = Serve.Protocol
module J = Trace_json

(* ---- child processes ------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type daemon = { pid : int; socket : string }

(** Blocking request/response on a fresh connection (set-up, stats). *)
let call socket req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      P.write_request fd req;
      match P.read_response fd with
      | `Response r -> r
      | `Eof -> failwith "serve closed the connection"
      | `Error m -> failwith ("serve framing error: " ^ m))

let field name (r : P.response) = List.assoc_opt name r.P.body

let num name r =
  match field name r with Some (J.Num n) -> n | _ -> nan

let spawn ~exe ~dir ~idx =
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" idx) in
  let args =
    [|
      exe; "serve"; "--socket"; socket; "--executors"; "1"; "--jobs"; "1";
      "--solver"; "portfolio";
      "--cache-dir"; Filename.concat dir (Printf.sprintf "cache%d" idx);
      "--flight"; Filename.concat dir (Printf.sprintf "d%d.flight.jsonl" idx);
      (* wall-clock ILP limit off: the deterministic work limits bind *)
      "--ilp-time-limit"; "1e9";
    |]
  in
  (* the daemon's own output goes to our stderr, never our stdout *)
  let pid = Unix.create_process exe args Unix.stdin Unix.stderr Unix.stderr in
  Util.live_children := pid :: !Util.live_children;
  let d = { pid; socket } in
  let deadline = Util.now () +. 60. in
  let rec wait () =
    if Util.now () > deadline then failwith "serve did not become ready"
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | p, _ when p = pid ->
          Util.forget_child pid;
          failwith "serve exited during start-up"
      | _ -> (
          match call socket (P.request ~id:"health" P.Health) with
          | r when field "ready" r = Some (J.Bool true) -> ()
          | _ | (exception _) ->
              Unix.sleepf 0.01;
              wait ())
  in
  wait ();
  d

(** SIGTERM (graceful drain), then wait; SIGKILL past a grace period. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | p, _ when p = d.pid -> ()
    | _ ->
        if Util.now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
  in
  wait ();
  Util.forget_child d.pid

(* ---- inputs ---------------------------------------------------------- *)

let platform = "platform-a-accel"

(** Serve-sized variants: a sixteenth of each kernel's default length,
    so a fresh request (~0.3 s here) is mostly its solve and write-through
    and a repeat (~0.07 s) mostly profiling and formulation, and a
    hundred requests fit in a run. *)
let centre = 0.0625
let spread = 0.02

(** Offered rate and the least number of requests in the timed phase
    (100, so ten samples lie beyond p90).  With a mean service time
    near 0.25 s here, the executor is half busy. *)
let min_requests = 100
let rate = 2.0

type plan = {
  repeat_set : Gen.variant list;  (** answered once in set-up *)
  schedule : (float * Gen.variant * bool) array;
      (** due time, program, is-repeat *)
}

(** Requests per arrival window: one fresh, one repeat. *)
let window = 2

(** The session: [n] requests, half repeats drawn from the repeat set
    and half fresh variants, over [n / rate] seconds.  Arrivals are a
    Poisson process conditioned on its count in every window of
    [window] requests (uniform times within the window), and each
    window holds one fresh and one repeat request in seeded order.
    Locally the arrivals stay random, but no seed gets a longer run of
    fresh solves than another, which keeps the latency tail steady from
    seed to seed. *)
let make_plan ~seed ~n =
  let n = (n + window - 1) / window * window in
  let v = Gen.variants ~seed ~stream:3 ~centre ~spread in
  let repeat_set = Gen.next_round v in
  let st = Gen.rng ~seed ~stream:4 in
  let rec fresh acc =
    if List.length acc >= n / 2 then Array.sub (Array.of_list acc) 0 (n / 2)
    else fresh (acc @ Gen.next_round v)
  in
  let fresh = Gen.shuffle st (fresh []) in
  let rs = Array.of_list repeat_set in
  let arrivals = Gen.rng ~seed ~stream:5 in
  let span = float_of_int window /. rate in
  let schedule =
    Array.concat
      (List.init (n / window) (fun w ->
           let half = window / 2 in
           let mix =
             Array.append
               (Array.init half (fun i -> (fresh.((w * half) + i), false)))
               (Array.init (window - half) (fun _ ->
                    (rs.(Random.State.int st (Array.length rs)), true)))
           in
           let mix = Gen.shuffle st mix in
           let due = Gen.arrivals arrivals ~n:window ~duration:span in
           Array.mapi
             (fun i (x, r) -> ((float_of_int w *. span) +. due.(i), x, r))
             mix))
  in
  { repeat_set; schedule }

let source_path dir (x : Gen.variant) = Filename.concat dir (x.Gen.name ^ ".c")

let write_sources dir plan =
  let write (x : Gen.variant) =
    let p = source_path dir x in
    if not (Sys.file_exists p) then begin
      let oc = open_out_bin p in
      output_string oc x.Gen.source;
      close_out oc
    end
  in
  List.iter write plan.repeat_set;
  Array.iter (fun (_, x, _) -> write x) plan.schedule

let parallelize_req ~id dir x =
  P.request ~id ~target:(source_path dir x) ~platform P.Parallelize

(* ---- the open-loop session ------------------------------------------ *)

type answer = {
  status : P.status;
  resp : P.response;
  t_resp : float;
}

type session = {
  t0 : float;  (** schedule origin *)
  sent : float array;
  answers : answer option array;
  stats_before : P.response;
  stats_after : P.response;
}

(** Send every request of [plan] at its due time on one connection and
    collect the responses (giving up [grace] seconds after the last due
    time). *)
let session d dir plan ~grace =
  let n = Array.length plan.schedule in
  let stats_before = call d.socket (P.request ~id:"stats0" P.Stats) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.socket);
  let dec = P.decoder () in
  let sent = Array.make n nan and answers = Array.make n None in
  let frames =
    Array.mapi
      (fun i (_, x, _) ->
        P.frame
          (J.to_string (P.request_json (parallelize_req ~id:(string_of_int i) dir x))))
      plan.schedule
  in
  let t0 = Util.now () +. 0.02 in
  let last_due = match plan.schedule with [||] -> 0. | a -> let due, _, _ = a.(n - 1) in due in
  let give_up = t0 +. last_due +. grace in
  let next = ref 0 and answered = ref 0 in
  let buf = Bytes.create 65536 in
  let write_all s =
    let rec go off =
      if off < String.length s then
        go (off + Unix.write_substring fd s off (String.length s - off))
    in
    go 0
  in
  (* a lost connection ends the session: what is unanswered then counts
     as failed, and the run still reports *)
  let broken = ref false in
  let lost why =
    Util.log "serve session lost: %s" why;
    broken := true
  in
  let rec loop () =
    let now = Util.now () in
    (* send everything now due *)
    (try
       while
         !next < n
         &&
         let due, _, _ = plan.schedule.(!next) in
         Util.now () >= t0 +. due
       do
         write_all frames.(!next);
         sent.(!next) <- Util.now ();
         incr next
       done
     with Unix.Unix_error (e, _, _) -> lost (Unix.error_message e));
    if (not !broken) && (!next < n || !answered < n) && now < give_up then begin
      let timeout =
        if !next < n then
          let due, _, _ = plan.schedule.(!next) in
          Float.max 0. (t0 +. due -. Util.now ())
        else Float.max 0. (give_up -. Util.now ())
      in
      (match Unix.select [ fd ] [] [] timeout with
      | [], _, _ -> ()
      | _ ->
          let k = try Unix.read fd buf 0 (Bytes.length buf) with Unix.Unix_error _ -> 0 in
          if k = 0 then lost "connection closed" else P.feed dec (Bytes.sub_string buf 0 k);
          let t_resp = Util.now () in
          let rec drain () =
            match P.next dec with
            | `Awaiting -> ()
            | `Error m -> lost ("framing error: " ^ m)
            | `Frame payload -> (
                match P.parse_response payload with
                | Error m -> lost ("bad response: " ^ m)
                | Ok resp ->
                    (match int_of_string_opt resp.P.id with
                    | Some i when i >= 0 && i < n && answers.(i) = None ->
                        answers.(i) <- Some { status = resp.P.status; resp; t_resp };
                        incr answered
                    | _ -> ());
                    drain ())
          in
          drain ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) loop;
  let stats_after =
    if !broken then stats_before else call d.socket (P.request ~id:"stats1" P.Stats)
  in
  { t0; sent; answers; stats_before; stats_after }

(* ---- set-up: spawn, then answer the repeat set once ----------------- *)

let answer_repeat_set d dir plan =
  List.map
    (fun (x : Gen.variant) ->
      let r = call d.socket (parallelize_req ~id:("warm-" ^ x.Gen.name) dir x) in
      (x, r))
    plan.repeat_set

let setup_reps = 3

(* ---- metrics --------------------------------------------------------- *)

let ok_status = function P.Ok_ | P.Degraded -> true | _ -> false

let str name r = match field name r with Some (J.Str s) -> Some s | _ -> None

let rec path_num j = function
  | [] -> ( match j with J.Num n -> n | _ -> nan)
  | k :: rest -> (
      match J.member k j with Some v -> path_num v rest | None -> nan)

let stats_num (r : P.response) path = path_num (J.Obj r.P.body) path

let worker_busy (r : P.response) =
  match field "workers" r with
  | Some (J.List rows) ->
      List.fold_left (fun a row -> a +. path_num row [ "busy_s" ]) 0. rows
  | _ -> nan

let theo =
  match Platform.Presets.find platform with
  | Some p -> Platform.Desc.theoretical_speedup p
  | None -> nan

(** Output checks on one answer: status ok/degraded, speedup within
    [1, theoretical], and the same digest as any earlier answer for the
    same program. *)
let check_answer (b : Inproc.book) name (a : answer option) =
  b.attempted <- b.attempted + 1;
  let fail = Inproc.fail b name in
  match a with
  | None -> fail "no response"
  | Some a when not (ok_status a.status) ->
      fail (Printf.sprintf "status %s %s" (P.status_name a.status) a.resp.P.message)
  | Some a -> (
      let s = num "speedup" a.resp in
      if not (s >= 1. -. 1e-9 && s <= theo +. 1e-9) then
        fail (Printf.sprintf "speedup %g outside [1, %g]" s theo)
      else
        match (str "digest" a.resp, Hashtbl.find_opt b.digests name) with
        | None, _ -> fail "no digest"
        | Some d, Some d0 when d <> d0 -> fail (Printf.sprintf "digest %s, earlier %s" d d0)
        | Some d, _ -> Hashtbl.replace b.digests name d)

let ms = Inproc.ms

(** Latency of each request from its due time; [infinity] when it was
    not answered ok. *)
let latencies plan s =
  Array.mapi
    (fun i (due, _, _) ->
      match s.answers.(i) with
      | Some a when ok_status a.status -> ms (a.t_resp -. (s.t0 +. due))
      | _ -> infinity)
    plan.schedule
  |> Array.to_list

let finite_or cap x = if Float.is_finite x then x else cap

let timing name (a : answer) =
  match field "server_timing" a.resp with
  | Some j -> path_num j [ name ]
  | None -> nan

(* ---- in process: validation and the traced replay ------------------ *)

let replica_cfg = { Inproc.portfolio_cfg with Parcore.Config.ilp_time_limit_s = 1e9 }

let input (x : Gen.variant) =
  {
    Inproc.name = x.Gen.name;
    kernel = x.Gen.kernel;
    platform = Inproc.preset platform;
    source = x.Gen.source;
    len = x.Gen.len;
    prepared = None;
  }

(** Re-derive the smallest answered variant of each kernel in process
    (its digest must match the daemon's) and check it with
    [Runtime.Exec.validate]. *)
let validate (b : Inproc.book) plan =
  let smallest = Hashtbl.create 16 in
  Array.iter
    (fun (_, (x : Gen.variant), _) ->
      match Hashtbl.find_opt smallest x.Gen.kernel with
      | Some (y : Gen.variant) when y.Gen.len <= x.Gen.len -> ()
      | _ -> Hashtbl.replace smallest x.Gen.kernel x)
    plan.schedule;
  Hashtbl.iter
    (fun _ (x : Gen.variant) ->
      match Hashtbl.find_opt b.digests x.Gen.name with
      | None -> ()
      | Some d -> (
          let i = input x in
          match Inproc.run_op replica_cfg i with
          | Error e -> Inproc.fail b x.Gen.name ("in-process run failed: " ^ e)
          | Ok r when r.Inproc.digest <> d ->
              Inproc.fail b x.Gen.name "serve digest differs from the in-process run"
          | Ok r -> Hashtbl.replace b.to_validate x.Gen.kernel (i, r)))
    smallest;
  Inproc.validate_all b

(** Replay the session's requests in order through the library with one
    shared memo — the daemon's hot memo — each layer call inside a span
    ({!Inproc.traced_op}).  This splits the executor's solve time by
    layer, which the wire does not show; digests must match the
    daemon's. *)
let replay (b : Inproc.book) plan sp =
  let memo = Ilp.Memo.create () in
  let run sp x = Inproc.traced_op ~memo sp replica_cfg (input x) in
  (* the daemon answered the repeat set in set-up: warm the memo alike *)
  List.iter (fun x -> ignore (run (Spans.create ()) x)) plan.repeat_set;
  Array.to_list plan.schedule
  |> List.filter_map (fun (_, (x : Gen.variant), _) ->
         match run sp x with
         | Error e ->
             Inproc.fail b x.Gen.name ("replay failed: " ^ e);
             None
         | Ok r ->
             (match Hashtbl.find_opt b.digests x.Gen.name with
             | Some d0 when d0 <> r.Inproc.digest ->
                 Inproc.fail b x.Gen.name "replay digest differs from serve"
             | _ -> ());
             Some (input x, r))

(* ---- the workload ----------------------------------------------------- *)

let count_if f a = Array.fold_left (fun n x -> if f x then n + 1 else n) 0 a

let run ~exe ~work_dir ~seed ~seconds ~trace : Inproc.run_result =
  mkdir_p work_dir;
  let src_dir = Filename.concat work_dir "src" in
  mkdir_p src_dir;
  let c = Inproc.book () in
  let n = max min_requests (int_of_float (Float.ceil (rate *. seconds))) in
  let plan = make_plan ~seed ~n in
  (* set-up, [setup_reps] times from scratch: write the inputs, spawn a
     daemon, wait until it answers, answer the repeat set once *)
  let setup idx =
    let t0 = Util.now () in
    write_sources src_dir plan;
    let d = spawn ~exe ~dir:work_dir ~idx in
    let warm = answer_repeat_set d src_dir plan in
    (d, warm, Util.now () -. t0)
  in
  let times = ref [] and daemon = ref None in
  for idx = 1 to setup_reps do
    let d, warm, dt = setup idx in
    times := dt :: !times;
    Option.iter (fun (d0, _) -> stop d0) !daemon;
    daemon := Some (d, warm)
  done;
  let d, warm = Option.get !daemon in
  List.iter
    (fun ((x : Gen.variant), r) ->
      check_answer c x.Gen.name (Some { status = r.P.status; resp = r; t_resp = 0. }))
    warm;
  let grace = 60. in
  let s = session d src_dir plan ~grace in
  Array.iteri
    (fun i (_, (x : Gen.variant), _) -> check_answer c x.Gen.name s.answers.(i))
    plan.schedule;
  let rss = Util.peak_rss_mb (string_of_int d.pid) in
  stop d;
  let ok i = match s.answers.(i) with Some a -> ok_status a.status | None -> false in
  let lat = latencies plan s in
  let cap = ms (grace +. (float_of_int n /. rate)) in
  let p50 = finite_or cap (Util.median lat) and p90 = finite_or cap (Util.quantile 0.9 lat) in
  let answered = Array.to_list s.answers |> List.filter_map Fun.id in
  let answered_ok = List.filter (fun a -> ok_status a.status) answered in
  let last_resp = List.fold_left (fun t a -> Float.max t a.t_resp) s.t0 answered in
  let speedups =
    let seen = Hashtbl.create 64 in
    List.iter
      (fun a ->
        Option.iter (fun t -> Hashtbl.replace seen t (num "speedup" a.resp)) (str "target" a.resp))
      answered_ok;
    Hashtbl.fold (fun _ v acc -> v :: acc) seen []
  in
  (* repeats as the daemon saw them: answered without solving an ILP *)
  let repeat_share =
    float_of_int (List.length (List.filter (fun a -> num "ilps" a.resp = 0.) answered_ok))
    /. float_of_int n
  in
  let late =
    List.init n (fun i ->
        let due, _, _ = plan.schedule.(i) in
        ms (s.sent.(i) -. (s.t0 +. due)))
    |> List.filter Float.is_finite
  in
  let late_max = List.fold_left Float.max 0. late in
  let backlog = count_if Option.is_none s.answers in
  validate c plan;
  let validated = Hashtbl.length c.validated in
  let detail =
    [
      ("requests", Util.Int n);
      ("rate_per_s", Util.Num rate);
      ("repeat_share", Util.Num repeat_share);
      ("setup_reps_s", Util.List (List.map (fun t -> Util.Num t) (List.rev !times)));
      ("op_p50_ms", Util.Num p50);
      ("client_late_max_ms", Util.Num late_max);
      ("backlog_end", Util.Int backlog);
      ("validated_kernels", Util.Int validated);
      ("digests_md5", Util.Str (Util.digests_md5 c.digests));
      ("daemon_peak_rss_mb", Util.Num rss);
    ]
  in
  let trace_detail = ref [] in
  let metrics =
    if not trace then
      [
        ("setup_s", Util.median !times, "s");
        ( "programs_per_s",
          float_of_int (List.length answered_ok) /. Float.max 1e-9 (last_resp -. s.t0),
          "1/s" );
        ("op_p50_ms", p50, "ms");
        ("op_p90_ms", p90, "ms");
        ("speedup_geomean", Util.geomean speedups, "x");
        ("ok_frac", 1. -. (float_of_int c.failed /. float_of_int (max 1 c.attempted)), "ratio");
        ("peak_rss_mb", rss, "MB");
      ]
    else begin
      (* the session is the same in both modes; the traced run splits
         each request after it, from the client's timestamps and the
         server's [server_timing], then replays the programs in process
         for the layers inside the executor *)
      let per = Hashtbl.create 8 in
      let add layer v =
        Hashtbl.replace per layer (v :: (try Hashtbl.find per layer with Not_found -> []))
      in
      Array.iteri
        (fun i (due, _, _) ->
          match s.answers.(i) with
          | Some a when ok i ->
              let q = timing "queue_wait_s" a and sv = timing "solve_s" a in
              let se = timing "serialize_s" a in
              let whole = a.t_resp -. (s.t0 +. due) in
              let client = s.sent.(i) -. (s.t0 +. due) in
              add "request" (ms whole);
              add "client" (ms client);
              add "queue" (ms q);
              add "solve" (ms sv);
              add "serialize" (ms se);
              add "transport" (ms (whole -. client -. q -. sv -. se))
          | _ -> ())
        plan.schedule;
      let per l = try Hashtbl.find per l with Not_found -> [] in
      let sv = s.stats_after and sv0 = s.stats_before in
      let delta path = stats_num sv path -. stats_num sv0 path in
      let window = delta [ "uptime_s" ] in
      let resp_sum name = Util.sum (List.map (fun a -> num name a.resp) answered_ok) in
      let n_ok = float_of_int (max 1 (List.length answered_ok)) in
      let rsp = Spans.create () in
      let replayed = replay c plan rsp in
      trace_detail :=
        [
          ( "layer_ms_mean",
            Util.Obj
              (List.map
                 (fun l -> (l, Util.Num (Util.mean (per l))))
                 [ "request"; "client"; "queue"; "solve"; "serialize"; "transport" ]) );
          (* the daemon's own totals, beside the replay's layer metrics *)
          ( "daemon",
            Util.Obj
              [
                ("ilps", Util.Num (resp_sum "ilps"));
                ("memo_hits", Util.Num (resp_sum "memo_hits"));
                ("algorithm_ms_mean", Util.Num (ms (resp_sum "wall_s") /. n_ok));
                ("ilp_solve_ms_mean", Util.Num (ms (resp_sum "solve_time_s") /. n_ok));
              ] );
        ];
      (* the executor's layers, from the in-process replay *)
      Inproc.layer_metrics rsp ~ops:(List.length replayed) replayed
      @ [
          ("cache.entries", stats_num sv [ "cache"; "entries" ], "count");
          ("cache.bytes", stats_num sv [ "cache"; "bytes" ], "B");
          ("cache.disk_hits", delta [ "cache"; "hits" ], "count");
          ("serve.queue_ms_p50", Util.median (per "queue"), "ms");
          ("serve.queue_ms_p90", Util.quantile 0.9 (per "queue"), "ms");
          ("serve.solve_ms_p50", Util.median (per "solve"), "ms");
          ("serve.serialize_ms_p50", Util.median (per "serialize"), "ms");
          ("serve.transport_ms_p50", Util.median (per "transport"), "ms");
          ( "serve.busy_frac",
            (worker_busy sv -. worker_busy sv0) /. Float.max 1e-9 window,
            "ratio" );
          ( "serve.rejected",
            delta [ "counters"; "rejected_overloaded" ]
            +. delta [ "counters"; "rejected_draining" ],
            "count" );
          ("client.late_max_ms", late_max, "ms");
          ("client.backlog_end", float_of_int backlog, "count");
          (* the session is the same in both modes: the split is computed
             afterwards from timestamps every run records *)
          ("trace.overhead_frac", 0., "ratio");
        ]
    end
  in
  {
    Inproc.correct = c.failed = 0;
    attempted = c.attempted;
    failed = c.failed;
    metrics;
    detail =
      detail
      @ !trace_detail
      @ [ ("failures", Util.List (List.map (fun s -> Util.Str s) c.failures)) ];
  }
