(** perfbench: the repository's benchmark.  One run of one workload:

    {v main.exe --workload W --seed N --seconds S --trace 0|1
               [--serve-exe PATH] [--work-dir DIR] [--rev REV]
               [--host-cores N] v}

    prints a detail record (seed, provenance, repeat share, failures)
    and, as its last line, the result object
    [{"correct", "attempted", "failed", "metrics"}] holding the
    end-to-end metrics (untraced run) or the per-layer metrics (traced
    run). *)

let workloads =
  [ "solve-exact"; "solve-heuristic"; "compile-portfolio"; "serve-mixed" ]

(** Every per-layer metric, in report order; a workload that has no
    such layer reports 0. *)
let per_layer =
  [
    ("minic.ms", "ms"); ("interp.ms", "ms"); ("interp.steps", "count");
    ("htg.ms", "ms"); ("htg.nodes", "count"); ("core.ms", "ms");
    ("core.self_ms", "ms"); ("ilp.solves", "count"); ("ilp.vars", "count");
    ("ilp.constrs", "count"); ("ilp.pivots", "count"); ("ilp.bb_nodes", "count");
    ("ilp.cuts", "count"); ("ilp.presolve_rows", "count"); ("ilp.solve_ms", "ms");
    ("ilp.limited", "count"); ("heuristics.solves", "count");
    ("heuristics.ms", "ms"); ("heuristics.exact_win_frac", "ratio");
    ("memo.hits", "count"); ("memo.hit_frac", "ratio"); ("cache.entries", "count");
    ("cache.bytes", "B"); ("cache.disk_hits", "count");
    ("serve.queue_ms_p50", "ms"); ("serve.queue_ms_p90", "ms");
    ("serve.solve_ms_p50", "ms"); ("serve.serialize_ms_p50", "ms");
    ("serve.transport_ms_p50", "ms"); ("serve.busy_frac", "ratio");
    ("serve.rejected", "count"); ("implement.ms", "ms");
    ("client.late_max_ms", "ms"); ("client.backlog_end", "count");
    ("trace.op_ms", "ms"); ("trace.coverage", "ratio"); ("trace.ops", "count");
    ("trace.overhead_frac", "ratio");
  ]

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    ("usage: main.exe --workload " ^ String.concat "|" workloads
   ^ " --seed N --seconds S --trace 0|1 [--serve-exe PATH] [--work-dir DIR] [--rev REV] \
      [--host-cores N]");
  exit 2

let () =
  (* the host-speed calibrator, a child of a closed-loop run *)
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--calibrate" ] then begin
    Util.calibrator_main ();
    exit 0
  end;
  (* a terminated run still stops the processes it started (at_exit) *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  (* a daemon that dies mid-session shows as failed requests, not SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage ("missing --" ^ k) in
  let get_opt k d = Option.value (List.assoc_opt k opts) ~default:d in
  let workload = get "workload" in
  let seed = match int_of_string_opt (get "seed") with Some s -> s | None -> usage "bad --seed" in
  let seconds =
    match float_of_string_opt (get "seconds") with
    | Some s when s > 0. -> s
    | _ -> usage "bad --seconds"
  in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage "bad --trace"
  in
  let r =
    match workload with
    | "solve-exact" -> Inproc.run_workload ~seconds ~trace (Inproc.solve_exact ())
    | "solve-heuristic" -> Inproc.run_workload ~seconds ~trace (Inproc.solve_heuristic ~seed)
    | "compile-portfolio" ->
        Inproc.run_workload ~seconds ~trace (Inproc.compile_portfolio ~seed)
    | "serve-mixed" ->
        let dir =
          Filename.concat (get_opt "work-dir" ".perfbench-work")
            (Printf.sprintf "serve-%d" (Unix.getpid ()))
        in
        Fun.protect
          ~finally:(fun () -> Serve_run.rm_rf dir)
          (fun () ->
            Serve_run.run ~exe:(get "serve-exe") ~work_dir:dir ~seed ~seconds ~trace)
    | w -> usage ("unknown workload " ^ w)
  in
  let metrics =
    if trace then
      List.map
        (fun (n, u) ->
          match List.find_opt (fun (m, _, _) -> m = n) r.Inproc.metrics with
          | Some (_, v, _) -> (n, v, u)
          | None -> (n, 0., u))
        per_layer
    else r.Inproc.metrics
  in
  let detail =
    [
      ("perfbench", Util.Str "v1");
      ("workload", Util.Str workload);
      ("seed", Util.Int seed);
      ("trace", Util.Bool trace);
      ("seconds", Util.Num seconds);
      ( "provenance",
        Util.Obj
          [
            ("rev", Util.Str (get_opt "rev" "unknown"));
            ( "host_cores",
              match int_of_string_opt (get_opt "host-cores" "") with
              | Some n -> Util.Int n
              | None -> Util.Null );
            (* fewer than the host's when run.py pins a closed loop *)
            ("usable_cores", Util.Int (Domain.recommended_domain_count ()));
            ("ocaml", Util.Str Sys.ocaml_version);
          ] );
    ]
    @ r.Inproc.detail
  in
  print_endline (Util.json_string (Util.Obj detail));
  print_endline
    (Util.json_string
       (Util.Obj
          [
            ("correct", Util.Bool r.Inproc.correct);
            ("attempted", Util.Int r.Inproc.attempted);
            ("failed", Util.Int r.Inproc.failed);
            ( "metrics",
              Util.Obj
                (List.map
                   (fun (n, v, u) ->
                     (n, Util.Obj [ ("value", Util.Num v); ("unit", Util.Str u) ]))
                   metrics) );
          ]))
