(** [mpsoc-par] — command-line driver for the parallelization tool flow.

    Subcommands:
    - [parallelize FILE]: run the full flow on a Mini-C source file and
      print the parallel specification, pre-mapping and simulated speedup;
    - [analyze FILE]: print the profiled AHTG;
    - [bench NAME]: run one suite benchmark through both approaches;
    - [experiments]: regenerate the paper's figures and Table I;
    - [list]: list suite benchmarks and platform presets. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(** Print a typed error and exit with its contract code (3 invalid input /
    resource limit, 4 timeout or deadlock, 1 injected fault or internal). *)
let exit_with (e : Mpsoc_error.t) =
  Fmt.epr "%a@." Mpsoc_error.pp e;
  exit (Mpsoc_error.exit_code e)

let platform_arg =
  Arg.(
    value
    & opt string "platform-a-accel"
    & info [ "p"; "platform" ] ~docv:"PLATFORM"
        ~doc:
          "Target platform: a preset name (see $(b,list)) or a platform \
           description file.")

(* Resolved inside each subcommand (not an [Arg.conv]) so a malformed
   platform file honours the typed exit-code contract (exit 3) instead of
   cmdliner's generic CLI-error code. *)
let resolve_platform s : Platform.Desc.t =
  match Platform.Presets.find s with
  | Some p -> p
  | None ->
      if Sys.file_exists s then
        match Platform.Parse.of_file_result s with
        | Ok p -> p
        | Error e -> exit_with e
      else
        exit_with
          (Mpsoc_error.make ~phase:Cli ~kind:Invalid_input ~location:s
             ~advice:"see `mpsoc-par list` for preset names"
             (Printf.sprintf
                "unknown platform %S (preset names: %s; or a description file)" s
                (String.concat ", " (List.map fst Platform.Presets.all))))

let approach_arg =
  Arg.(
    value
    & opt (enum [ ("hetero", Parcore.Parallelize.Heterogeneous);
                  ("homo", Parcore.Parallelize.Homogeneous) ])
        Parcore.Parallelize.Heterogeneous
    & info [ "a"; "approach" ] ~docv:"APPROACH"
        ~doc:"Parallelization approach: $(b,hetero) (the paper's) or \
              $(b,homo) (the baseline [6]).")

let time_limit_arg =
  Arg.(
    value
    & opt float Parcore.Config.default.Parcore.Config.ilp_time_limit_s
    & info [ "ilp-time-limit" ] ~docv:"SECONDS"
        ~doc:"Time budget per generated ILP.")

let max_steps_arg =
  Arg.(
    value
    & opt int Parcore.Config.default.Parcore.Config.max_steps
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"Interpreted-statement budget for profiling and execution runs.")

let jobs_arg =
  Arg.(
    value
    & opt int Parcore.Config.default.Parcore.Config.jobs
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallelization itself: sibling subtrees \
           and independent per-class ILP sweeps are solved concurrently. \
           $(b,1) (the default) runs sequentially on the calling domain; \
           $(b,0) uses the machine's recommended domain count.  Chosen \
           solutions are bit-identical at any value.")

let timeout_arg =
  Arg.(
    value
    & opt float Parcore.Config.default.Parcore.Config.timeout_s
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock deadline for the execution runtime.  Past it the \
           watchdog cancels the run and the tool exits 4 with a \
           $(b,timeout) (or $(b,deadlock)) error.  0 disables the \
           watchdog.")

let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"SPEC"
        ~doc:
          "Arm the deterministic fault-injection harness for this run: a \
           comma list of $(i,point@hit=action) rules (action: \
           $(b,raise), $(b,exhaust), or $(b,delay:SECONDS)) or \
           $(b,seed:N) for a generated plan.  Probe points: \
           frontend.parse, platform.io, simplex.pivot, ilp.budget, \
           pool.spawn, channel.recv.")

(** Arm the requested fault plan (if any) around [f]. *)
let with_fault_plan spec f =
  match spec with
  | None -> f ()
  | Some s -> (
      match Fault.of_spec s with
      | Ok plan -> Fault.with_plan plan f
      | Error msg ->
          exit_with
            (Mpsoc_error.make ~phase:Cli ~kind:Invalid_input ~location:s
               ~advice:"spec: point@hit=raise|exhaust|delay:S[,...] or seed:N"
               ("bad --fault-plan: " ^ msg)))

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist solved ILP subproblems under $(docv) and answer \
           structurally identical solves from disk on later runs.  Warm \
           runs are bit-identical to cold ones; corrupt or stale cache \
           files silently degrade to misses.  Created if missing.")

let cache_max_mb_arg =
  Arg.(
    value
    & opt int Parcore.Config.default.Parcore.Config.cache_max_mb
    & info [ "cache-max-mb" ] ~docv:"MB"
        ~doc:
          "Size cap of the persistent solve cache; least-recently-used \
           entries are evicted once the data file exceeds it.")

(* The three ILP acceleration toggles ship as one bundle: every solving
   subcommand takes all of them or none, and the solver treats them as a
   single configuration (they salt the memo/persistent cache keys
   together). *)
type accel = {
  presolve : bool;
  symmetry : bool;
  cuts : bool;
}

let accel_default =
  {
    presolve = Parcore.Config.default.Parcore.Config.ilp_presolve;
    symmetry = Parcore.Config.default.Parcore.Config.ilp_symmetry;
    cuts = Parcore.Config.default.Parcore.Config.ilp_cuts;
  }

let accel_term =
  let toggle name default doc =
    Arg.(value & opt bool default & info [ name ] ~docv:"BOOL" ~doc)
  in
  let presolve =
    toggle "presolve" accel_default.presolve
      "Run the ILP presolve reductions (bound tightening, implied \
       fixings, dominated columns) before each branch & bound search; \
       solutions are lifted back so results are unchanged."
  in
  let symmetry =
    toggle "symmetry" accel_default.symmetry
      "Add lexicographic symmetry-breaking rows (used-task contiguity \
       and interchangeable-class ordering) to each formulation."
  in
  let cuts =
    toggle "cuts" accel_default.cuts
      "Separate knapsack cover cuts on the budget rows at the root node."
  in
  Term.(
    const (fun presolve symmetry cuts -> { presolve; symmetry; cuts })
    $ presolve $ symmetry $ cuts)

let solver_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("ilp", Parcore.Config.Ilp);
             ("portfolio", Parcore.Config.Portfolio);
             ("heuristic", Parcore.Config.Heuristic);
           ])
        Parcore.Config.default.Parcore.Config.solver
    & info [ "solver" ] ~docv:"ENGINE"
        ~doc:
          "Per-node solve engine: $(b,ilp) (exact branch & bound, the \
           default), $(b,heuristic) (list scheduler + seeded GA refiner, \
           no branch & bound anywhere), or $(b,portfolio) (exact search \
           under a reduced deterministic work budget).  $(b,ilp) and \
           $(b,portfolio) seed branch & bound with the heuristic's \
           schedule and keep the better answer.  All three are \
           deterministic at any $(b,--jobs).")

let portfolio_work_limit_arg =
  Arg.(
    value
    & opt float Parcore.Config.default.Parcore.Config.portfolio_work_limit
    & info [ "portfolio-work-limit" ] ~docv:"UNITS"
        ~doc:
          "Deterministic simplex-work budget for the exact side of each \
           $(b,--solver=portfolio) race (work units, not wall clock; \
           $(b,0) = the full $(b,ilp)-mode budget).")

let cfg_of ?(jobs = Parcore.Config.default.Parcore.Config.jobs)
    ?(timeout_s = Parcore.Config.default.Parcore.Config.timeout_s)
    ?(trace = None) ?(metrics = None) ?(profile = false) ?(cache_dir = None)
    ?(cache_max_mb = Parcore.Config.default.Parcore.Config.cache_max_mb)
    ?(accel = accel_default)
    ?(solver = Parcore.Config.default.Parcore.Config.solver)
    ?(portfolio_work_limit =
      Parcore.Config.default.Parcore.Config.portfolio_work_limit) time_limit
    max_steps =
  {
    Parcore.Config.default with
    Parcore.Config.ilp_time_limit_s = time_limit;
    max_steps;
    jobs;
    timeout_s;
    trace_file = trace;
    metrics_file = metrics;
    profile;
    cache_dir;
    cache_max_mb;
    ilp_presolve = accel.presolve;
    ilp_symmetry = accel.symmetry;
    ilp_cuts = accel.cuts;
    solver;
    portfolio_work_limit;
  }

(* ---------------- observability ---------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run and write it as Chrome \
           trace-event JSON to $(docv) (loadable in Perfetto or \
           chrome://tracing; one track per domain).  $(b,-) writes to \
           stdout.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the unified metrics JSON (solver totals, runtime \
           counters, per-phase wall times) to $(docv).  $(b,-) writes to \
           stdout.")

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print a profiling summary to stderr: per-phase wall times, \
           solver totals in the paper's Table I shape, and the slowest \
           individual ILP solves.")

(** Arm the trace recorder when any observability output was requested
    and hand [f] a report function: call it once the run's outcome is
    known (after normal output, before any [exit]) to stop the recorder
    and write the trace/metrics/profile exports. *)
let with_observability (cfg : Parcore.Config.t) ~generated_by f =
  let armed =
    cfg.Parcore.Config.trace_file <> None
    || cfg.Parcore.Config.metrics_file <> None
    || cfg.Parcore.Config.profile
  in
  if armed then Trace.start ();
  let t0 = Trace.now_s () in
  let report ?runtime ?cache ~stats () =
    if armed then begin
      let wall_s = Trace.now_s () -. t0 in
      match Trace.stop () with
      | None -> ()
      | Some c ->
          Option.iter
            (fun path -> Trace_chrome.write ~path c)
            cfg.Parcore.Config.trace_file;
          Option.iter
            (fun path ->
              Observe.write_json ~path
                (Observe.metrics_doc ~generated_by
                   ~phases:(Observe.phases_of_events c.Trace.events)
                   ?runtime ?cache ~trace:c ~wall_s stats))
            cfg.Parcore.Config.metrics_file;
          if cfg.Parcore.Config.profile then
            Fmt.epr "%t@." (fun ppf ->
                Observe.profile_table ppf ?runtime ~wall_s
                  ~dropped:c.Trace.dropped ~events:c.Trace.events stats)
    end
  in
  f report

(** Resolve a positional TARGET: a Mini-C source file, or a suite
    benchmark name.  The error path lists the available benchmark names
    (shared with batch and the serve daemon via {!Benchsuite.Suite.resolve}). *)
let resolve_target target : string * string =
  match Benchsuite.Suite.resolve target with
  | Ok r -> r
  | Error e -> exit_with e

let exit_err fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

(** Run [f], mapping the library's runtime failures (diverging or faulting
    input programs) to the typed exit-code contract. *)
let guard_runtime file f =
  match f () with
  | v -> v
  | exception Mpsoc_error.Error e -> exit_with e
  | exception Interp.Eval.Step_limit_exceeded n ->
      exit_with
        (Mpsoc_error.make ~phase:Profile ~kind:Resource_limit ~location:file
           ~advice:"raise --max-steps"
           (Printf.sprintf
              "the program did not terminate within %d interpreted statements" n))
  | exception Interp.Eval.Runtime_error m ->
      exit_with
        (Mpsoc_error.make ~phase:Profile ~kind:Invalid_input ~location:file
           ("runtime error during profiling: " ^ m))

(** The degraded-but-valid exit decision (exit 2); shared with the serve
    daemon's [degraded] response status. *)
let degradation_status = Parcore.Algorithm.degradation

let exit_degraded (algo : Parcore.Algorithm.result) =
  match degradation_status algo with
  | None -> ()
  | Some name ->
      (* diagnostic, not output: stderr keeps stdout machine-readable
         when --trace/--metrics write to - *)
      Fmt.epr "degradation: %s@." (Parcore.Algorithm.degradation_message name);
      exit 2

(** Canonical solution digest (what the cold-vs-warm CI step diffs, and
    what serve responses report per request). *)
let solution_digest = Parcore.Algorithm.digest

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:"Write the hierarchical task graph in Graphviz format to $(docv).")

let gantt_arg =
  Arg.(
    value & flag
    & info [ "gantt" ]
        ~doc:"Print an ASCII Gantt chart of the simulated parallel schedule.")

(* ---------------- parallelize ---------------- *)

let parallelize_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:"A Mini-C source file or a suite benchmark name.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Also print the ILP statistics summary (solve time, branch \
                & bound nodes) to stderr.")
  in
  let run target platform approach time_limit max_steps jobs dot gantt verbose
      fault_spec trace metrics profile cache_dir cache_max_mb accel solver
      portfolio_work_limit =
    let platform = resolve_platform platform in
    let _name, src = resolve_target target in
    let cfg =
      cfg_of ~jobs ~trace ~metrics ~profile ~cache_dir ~cache_max_mb ~accel
        ~solver ~portfolio_work_limit time_limit max_steps
    in
    with_observability cfg ~generated_by:"mpsoc-par parallelize"
    @@ fun report ->
    match
      with_fault_plan fault_spec (fun () ->
          Parcore.Parallelize.run_result ~cfg ~approach ~platform src)
    with
    | Error e -> exit_with e
    | Ok out ->
        let algo = out.Parcore.Parallelize.algo in
        (* the reporting phase simulates the program; span it so the
           profile's phase times cover the whole run *)
        Trace.span ~cat:"phase" "report" (fun () ->
            Fmt.pr "platform: %a@." Platform.Desc.pp_summary platform;
            Fmt.pr "approach: %s@.@."
              (Parcore.Parallelize.approach_name approach);
            print_string
              (Parcore.Annotate.specification platform
                 out.Parcore.Parallelize.htg algo.Parcore.Algorithm.root);
            Fmt.pr "@.pre-mapping specification:@.";
            List.iter
              (fun (task, cls) -> Fmt.pr "  %s -> %s@." task cls)
              (Parcore.Annotate.pre_mapping platform
                 out.Parcore.Parallelize.htg algo.Parcore.Algorithm.root);
            let m = Parcore.Parallelize.metrics out in
            Fmt.pr
              "@.parallelization: %.2f s, %d ILPs, %d variables, %d \
               constraints@."
              algo.Parcore.Algorithm.wall_time_s
              algo.Parcore.Algorithm.stats.Ilp.Stats.ilps
              algo.Parcore.Algorithm.stats.Ilp.Stats.vars
              algo.Parcore.Algorithm.stats.Ilp.Stats.constrs;
            if verbose then begin
              Fmt.epr "ilp statistics: %a@." Ilp.Stats.pp
                algo.Parcore.Algorithm.stats;
              Option.iter
                (Fmt.epr "%a@." Cache.Store.pp_counters)
                algo.Parcore.Algorithm.disk_cache
            end;
            Fmt.pr "simulated makespan: %.1f us (sequential %.1f us)@."
              m.Sim.Engine.makespan_us
              (Sim.Engine.run platform out.Parcore.Parallelize.seq_program);
            Fmt.pr
              "speedup over sequential on the main core: %.2fx (theoretical \
               max %.2fx)@."
              (Parcore.Parallelize.speedup out)
              (Platform.Desc.theoretical_speedup platform);
            (match dot with
            | Some path ->
                Htg.Dot.to_file path out.Parcore.Parallelize.htg;
                Fmt.pr "task graph written to %s@." path
            | None -> ());
            if gantt then begin
              Fmt.pr "@.simulated schedule (first entry of each region):@.";
              print_string
                (Sim.Engine.gantt platform
                   (Sim.Engine.trace platform out.Parcore.Parallelize.program))
            end);
        report ?cache:algo.Parcore.Algorithm.disk_cache
          ~stats:algo.Parcore.Algorithm.stats ();
        exit_degraded algo
  in
  Cmd.v
    (Cmd.info "parallelize" ~doc:"Parallelize a Mini-C source file")
    Term.(
      const run $ target $ platform_arg $ approach_arg $ time_limit_arg
      $ max_steps_arg $ jobs_arg $ dot_arg $ gantt_arg $ verbose
      $ fault_plan_arg $ trace_arg $ metrics_arg $ profile_flag
      $ cache_dir_arg $ cache_max_mb_arg $ accel_term $ solver_arg
      $ portfolio_work_limit_arg)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file max_steps dot =
    let src = read_file file in
    match Minic.Frontend.compile src with
    | exception Minic.Frontend.Error e ->
        exit_with
          (Mpsoc_error.make ~phase:Frontend ~kind:Invalid_input ~location:file
             (Minic.Frontend.error_to_string e))
    | prog ->
        let r =
          guard_runtime file (fun () -> Interp.Eval.run ~max_steps prog)
        in
        (match r.Interp.Eval.ret with
        | Some v -> Fmt.pr "program result: %a@." Interp.Value.pp v
        | None -> ());
        Fmt.pr "interpreted %d statements, %.0f abstract cycles@.@."
          r.Interp.Eval.steps r.Interp.Eval.profile.Interp.Profile.total_work;
        let htg = Htg.Build.build prog r.Interp.Eval.profile in
        Fmt.pr "%a" (Htg.Node.pp ~indent:0) htg;
        match dot with
        | Some path ->
            Htg.Dot.to_file path htg;
            Fmt.pr "task graph written to %s@." path
        | None -> ()
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Print the profiled hierarchical task graph")
    Term.(const run $ file $ max_steps_arg $ dot_arg)

(* ---------------- bench ---------------- *)

let bench_cmd =
  let bench_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")
  in
  let run name platform time_limit max_steps jobs accel solver
      portfolio_work_limit =
    let platform = resolve_platform platform in
    match Benchsuite.Suite.find name with
    | None ->
        exit_err "unknown benchmark %S (try: %s)" name
          (String.concat ", " Benchsuite.Suite.names)
    | Some b ->
        let ctx =
          Report.Experiments.create
            ~cfg:
              (cfg_of ~jobs ~accel ~solver ~portfolio_work_limit time_limit
                 max_steps)
            ()
        in
        let homo =
          Report.Experiments.run ctx b platform Parcore.Parallelize.Homogeneous
        in
        let het =
          Report.Experiments.run ctx b platform Parcore.Parallelize.Heterogeneous
        in
        Fmt.pr "%s on %s: homogeneous %.2fx, heterogeneous %.2fx (max %.2fx)@."
          name platform.Platform.Desc.name homo.Report.Experiments.speedup
          het.Report.Experiments.speedup
          (Platform.Desc.theoretical_speedup platform)
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one suite benchmark through both approaches")
    Term.(
      const run $ bench_name $ platform_arg $ time_limit_arg $ max_steps_arg
      $ jobs_arg $ accel_term $ solver_arg $ portfolio_work_limit_arg)

(* ---------------- batch ---------------- *)

let batch_cmd =
  let targets =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"TARGETS"
          ~doc:"Mini-C source files and/or suite benchmark names.")
  in
  let run targets platform approach time_limit max_steps jobs fault_spec trace
      metrics profile cache_dir cache_max_mb accel solver portfolio_work_limit
      =
    let platform = resolve_platform platform in
    (* resolve everything up front so a typo fails before any solving *)
    let sources = List.map resolve_target targets in
    let cfg =
      cfg_of ~jobs ~trace ~metrics ~profile ~cache_dir ~cache_max_mb ~accel
        ~solver ~portfolio_work_limit time_limit max_steps
    in
    with_observability cfg ~generated_by:"mpsoc-par batch" @@ fun report ->
    with_fault_plan fault_spec @@ fun () ->
    (* one taskpool, one platform parse, one persistent store — shared by
       every target in the batch *)
    let jobs_n =
      if jobs = 0 then Domain.recommended_domain_count () else max 1 jobs
    in
    let pool =
      if jobs_n > 1 then Some (Taskpool.Pool.create ~domains:jobs_n ())
      else None
    in
    let store =
      match cache_dir with
      | None -> None
      | Some dir -> (
          match Cache.Store.open_ ~max_mb:cache_max_mb ~dir () with
          | s -> Some s
          | exception Mpsoc_error.Error e -> exit_with e)
    in
    let total = Ilp.Stats.create () in
    let hard_error = ref None in
    let degraded = ref false in
    let t0 = Ilp.Clock.now_s () in
    Fun.protect
      ~finally:(fun () ->
        Option.iter Taskpool.Pool.shutdown pool;
        Option.iter Cache.Store.close store)
      (fun () ->
        List.iter
          (fun (name, src) ->
            match
              Parcore.Parallelize.run_result ~cfg ?pool ?store ~approach
                ~platform src
            with
            | Error e ->
                (* diagnose and move on: one bad target must not cost the
                   batch the others' results *)
                Fmt.epr "%s: %a@." name Mpsoc_error.pp e;
                if !hard_error = None then
                  hard_error := Some (Mpsoc_error.exit_code e)
            | Ok out ->
                let algo = out.Parcore.Parallelize.algo in
                Ilp.Stats.merge ~into:total algo.Parcore.Algorithm.stats;
                (* one deterministic line per target on stdout (cold and
                   warm runs diff clean); counts and timings on stderr *)
                let deg = degradation_status algo in
                Fmt.pr "%s %.4fx %s%s@." name
                  (Parcore.Parallelize.speedup out)
                  (solution_digest algo)
                  (match deg with
                  | Some d -> " degraded:" ^ String.concat "-"
                                (String.split_on_char ' ' d)
                  | None -> "");
                (* land the line now: batch runs are long, and killing
                   one mid-run must keep the finished targets readable
                   even when stdout is a pipe *)
                flush stdout;
                Fmt.epr "%s: %d ILPs, %.2f s solve, %.2f s wall@." name
                  algo.Parcore.Algorithm.stats.Ilp.Stats.ilps
                  algo.Parcore.Algorithm.stats.Ilp.Stats.solve_time_s
                  algo.Parcore.Algorithm.wall_time_s;
                if deg <> None then degraded := true)
          sources);
    let cache = Option.map Cache.Store.counters store in
    Fmt.epr "batch: %d targets, %d ILPs, %.2f s solve, %.2f s wall@."
      (List.length sources) total.Ilp.Stats.ilps total.Ilp.Stats.solve_time_s
      (Ilp.Clock.now_s () -. t0);
    Option.iter (Fmt.epr "%a@." Cache.Store.pp_counters) cache;
    report ?cache ~stats:total ();
    match !hard_error with
    | Some code -> exit code
    | None -> if !degraded then exit 2
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Parallelize many sources in one process, sharing the taskpool, \
          the platform parse and the persistent solve cache across \
          targets; prints one deterministic result line per target")
    Term.(
      const run $ targets $ platform_arg $ approach_arg $ time_limit_arg
      $ max_steps_arg $ jobs_arg $ fault_plan_arg $ trace_arg $ metrics_arg
      $ profile_flag $ cache_dir_arg $ cache_max_mb_arg $ accel_term
      $ solver_arg $ portfolio_work_limit_arg)

(* ---------------- execute ---------------- *)

let execute_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:"A Mini-C source file or a suite benchmark name.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "d"; "domains" ] ~docv:"N"
          ~doc:
            "Worker domains for the execution runtime (default: the \
             machine's recommended domain count; 1 runs sequentially on \
             the calling domain).")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Also run the sequential reference interpreter and check that \
             the parallel execution computes the same result; exits \
             non-zero on a mismatch.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Also print the per-worker busy-time / task / steal \
                breakdown to stderr.")
  in
  let run target platform approach time_limit max_steps jobs domains validate
      timeout_s fault_spec verbose trace metrics profile =
    let platform = resolve_platform platform in
    let name, src = resolve_target target in
    let cfg =
      cfg_of ~jobs ~timeout_s ~trace ~metrics ~profile time_limit max_steps
    in
    with_observability cfg ~generated_by:"mpsoc-par execute" @@ fun report ->
    with_fault_plan fault_spec @@ fun () ->
    match
      Trace.span ~cat:"phase" "frontend" (fun () -> Minic.Frontend.compile src)
    with
    | exception Minic.Frontend.Error e ->
        exit_with
          (Mpsoc_error.make ~phase:Frontend ~kind:Invalid_input ~location:name
             (Minic.Frontend.error_to_string e))
    | prog -> (
        let out =
          match
            Parcore.Parallelize.run_program_result ~cfg ~approach ~platform
              prog
          with
          | Ok out -> out
          | Error e -> exit_with e
        in
        let algo = out.Parcore.Parallelize.algo in
        let root_sol = algo.Parcore.Algorithm.root in
        Fmt.pr "platform: %a@." Platform.Desc.pp_summary platform;
        Fmt.pr "approach: %s@." (Parcore.Parallelize.approach_name approach);
        match
          Trace.span ~cat:"phase" "execute" (fun () ->
              Runtime.Exec.run_result ?domains ~max_steps ~timeout_s prog
                out.Parcore.Parallelize.htg root_sol)
        with
        | Error e -> exit_with e
        | Ok r ->
            (match r.Runtime.Exec.ret with
            | Some v -> Fmt.pr "result: %a@." Interp.Value.pp v
            | None -> Fmt.pr "result: (none)@.");
            Fmt.pr "%a@." Runtime.Metrics.pp r.Runtime.Exec.metrics;
            if verbose then
              Fmt.epr "%a@." Runtime.Metrics.pp_workers r.Runtime.Exec.metrics;
            if validate then begin
              let seq =
                guard_runtime name (fun () -> Interp.Eval.run ~max_steps prog)
              in
              let ok =
                Runtime.Exec.ret_equal r.Runtime.Exec.ret seq.Interp.Eval.ret
              in
              let pp_ret ppf = function
                | Some v -> Interp.Value.pp ppf v
                | None -> Fmt.string ppf "(none)"
              in
              if ok then
                Fmt.pr "validation: OK (sequential result %a)@." pp_ret
                  seq.Interp.Eval.ret
              else
                exit_err "validation: MISMATCH (parallel %s, sequential %s)"
                  (Fmt.str "%a" pp_ret r.Runtime.Exec.ret)
                  (Fmt.str "%a" pp_ret seq.Interp.Eval.ret)
            end;
            report ~runtime:r.Runtime.Exec.metrics
              ~stats:algo.Parcore.Algorithm.stats ();
            exit_degraded algo)
  in
  Cmd.v
    (Cmd.info "execute"
       ~doc:
         "Really run the parallelized program on OCaml 5 domains and \
          report wall-clock time, task and steal counts")
    Term.(
      const run $ target $ platform_arg $ approach_arg $ time_limit_arg
      $ max_steps_arg $ jobs_arg $ domains_arg $ validate_arg $ timeout_arg
      $ fault_plan_arg $ verbose $ trace_arg $ metrics_arg $ profile_flag)

(* ---------------- experiments ---------------- *)

let experiments_cmd =
  let which =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Subset to run: fig7a fig7b fig8a fig8b table1 ablation \
                energy micro-free subset (default: all).")
  in
  let run which time_limit jobs =
    let ctx =
      Report.Experiments.create
        ~cfg:
          (cfg_of ~jobs time_limit
             Parcore.Config.default.Parcore.Config.max_steps)
        ()
    in
    let all = [ "fig7a"; "fig7b"; "fig8a"; "fig8b"; "table1" ] in
    let which = if which = [] then all else which in
    List.iter
      (fun id ->
        match id with
        | "fig7a" -> print_string (Report.Experiments.(render_figure (fig7a ctx)))
        | "fig7b" -> print_string (Report.Experiments.(render_figure (fig7b ctx)))
        | "fig8a" -> print_string (Report.Experiments.(render_figure (fig8a ctx)))
        | "fig8b" -> print_string (Report.Experiments.(render_figure (fig8b ctx)))
        | "table1" ->
            print_string
              (Report.Experiments.(render_table1 (table1 ctx)))
        | "ablation" ->
            print_string
              (Report.Experiments.(
                 render_ablation (ablation ctx Platform.Presets.platform_a_accel)))
        | "energy" ->
            print_string
              (Report.Experiments.(
                 render_energy (energy_table ctx Platform.Presets.platform_a_accel)))
        | other -> exit_err "unknown experiment %S" other)
      which
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's figures and tables")
    Term.(const run $ which $ time_limit_arg $ jobs_arg)

(* ---------------- serve / loadgen ---------------- *)

let socket_arg =
  Arg.(
    value
    & opt string Serve.Daemon.default_config.Serve.Daemon.socket_path
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on (loadgen: connects to).")

let serve_cmd =
  let tcp_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp-port" ] ~docv:"PORT"
          ~doc:"Also listen on 127.0.0.1:$(docv).")
  in
  let queue_max_arg =
    Arg.(
      value
      & opt int Serve.Daemon.default_config.Serve.Daemon.queue_max
      & info [ "queue-max" ] ~docv:"N"
          ~doc:
            "Admission-queue bound: past $(docv) queued jobs, new requests \
             are rejected with the typed $(b,overloaded) status.")
  in
  let default_deadline_arg =
    Arg.(
      value
      & opt float Serve.Daemon.default_config.Serve.Daemon.default_deadline_s
      & info [ "default-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Watchdog deadline applied to requests that carry none \
             ($(b,0) = unlimited).")
  in
  let drain_grace_arg =
    Arg.(
      value
      & opt float Serve.Daemon.default_config.Serve.Daemon.drain_grace_s
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:
            "On SIGTERM (or a $(b,drain) request), finish in-flight jobs \
             for up to $(docv) seconds before force-stopping with exit 4.")
  in
  let executors_arg =
    Arg.(
      value
      & opt int Serve.Daemon.default_config.Serve.Daemon.executors
      & info [ "executors" ] ~docv:"N"
          ~doc:
            "Supervised executor workers solving requests concurrently \
             (each with its own taskpool of $(b,--jobs) domains).")
  in
  let restart_budget_arg =
    Arg.(
      value
      & opt int Serve.Daemon.default_config.Serve.Daemon.restart_budget
      & info [ "restart-budget" ] ~docv:"N"
          ~doc:
            "Total executor restarts (after crashes or wedges) before the \
             daemon gives up and drains with exit 1.")
  in
  let wedge_grace_arg =
    Arg.(
      value
      & opt float Serve.Daemon.default_config.Serve.Daemon.wedge_grace_s
      & info [ "wedge-grace" ] ~docv:"SECONDS"
          ~doc:
            "Slack past a request's deadline before its executor worker is \
             declared wedged, the request answered $(b,timeout), and the \
             worker abandoned and replaced.")
  in
  let flight_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Flight-recorder dump file, written as JSONL on an executor \
             crash/wedge/restart, restart-budget exhaustion, or a \
             $(b,dump) request (default: $(i,SOCKET).flight.jsonl).")
  in
  let memo_stall_arg =
    Arg.(
      value
      & opt float Serve.Daemon.default_config.Serve.Daemon.memo_stall_s
      & info [ "memo-stall" ] ~docv:"SECONDS"
          ~doc:
            "Age past which a held single-flight solve-memo reservation \
             is reported as stalled (a wedged worker holding one blocks \
             peers solving the same subproblem).")
  in
  let run socket tcp_port queue_max default_deadline_s drain_grace_s executors
      restart_budget wedge_grace_s flight_path memo_stall_s time_limit
      max_steps jobs trace metrics profile cache_dir cache_max_mb accel solver
      portfolio_work_limit =
    let cfg =
      cfg_of ~jobs ~trace ~metrics ~profile ~cache_dir ~cache_max_mb ~accel
        ~solver ~portfolio_work_limit time_limit max_steps
    in
    match
      Serve.Daemon.run
        {
          Serve.Daemon.socket_path = socket;
          tcp_port;
          queue_max;
          default_deadline_s;
          drain_grace_s;
          executors;
          restart_budget;
          wedge_grace_s;
          flight_path;
          memo_stall_s;
          cfg;
        }
    with
    | code -> exit code
    | exception Mpsoc_error.Error e -> exit_with e
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident parallelization server: a Unix-domain (and \
          optionally TCP) daemon multiplexing concurrent clients onto a \
          supervised pool of executor workers (crash-only restart with a \
          bounded budget) over a shared in-memory solve memo and persistent \
          cache, with bounded fair admission, per-request deadlines, \
          liveness/readiness health checks and graceful drain on SIGTERM")
    Term.(
      const run $ socket_arg $ tcp_port_arg $ queue_max_arg
      $ default_deadline_arg $ drain_grace_arg $ executors_arg
      $ restart_budget_arg $ wedge_grace_arg $ flight_arg $ memo_stall_arg
      $ time_limit_arg $ max_steps_arg $ jobs_arg $ trace_arg $ metrics_arg
      $ profile_flag $ cache_dir_arg $ cache_max_mb_arg $ accel_term
      $ solver_arg $ portfolio_work_limit_arg)

let loadgen_cmd =
  let targets =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"TARGETS"
          ~doc:"Suite benchmark names (or server-side source paths) to replay.")
  in
  let op_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("parallelize", Serve.Protocol.Parallelize);
               ("execute", Serve.Protocol.Execute);
             ])
          Serve.Protocol.Parallelize
      & info [ "op" ] ~docv:"OP"
          ~doc:"Request kind: $(b,parallelize) (default) or $(b,execute).")
  in
  let qps_arg =
    Arg.(
      value
      & opt float Serve.Loadgen.default_config.Serve.Loadgen.qps
      & info [ "qps" ] ~docv:"RATE"
          ~doc:
            "Offered request rate (open-loop pacing across all \
             connections); $(b,0) sends as fast as possible.")
  in
  let concurrency_arg =
    Arg.(
      value
      & opt int Serve.Loadgen.default_config.Serve.Loadgen.concurrency
      & info [ "c"; "concurrency" ] ~docv:"N"
          ~doc:"Concurrent client connections (one domain each).")
  in
  let requests_arg =
    Arg.(
      value
      & opt int Serve.Loadgen.default_config.Serve.Loadgen.requests
      & info [ "n"; "requests" ] ~docv:"N"
          ~doc:"Total requests across all connections.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt float 0.
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-request watchdog deadline sent to the server \
             ($(b,0) = server default).")
  in
  let report_arg =
    Arg.(
      value
      & opt string "BENCH_serve.json"
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the latency-percentile report JSON \
             (p50/p90/p99, throughput, rejection rate, retry counts, \
             per-target solution digests) to $(docv); $(b,-) writes to \
             stdout.")
  in
  let retry_max_arg =
    Arg.(
      value
      & opt int Serve.Loadgen.default_config.Serve.Loadgen.retry_max
      & info [ "retry-max" ] ~docv:"N"
          ~doc:
            "Retries per request on a typed $(b,overloaded) rejection or a \
             transport failure (reconnecting), with capped exponential \
             backoff and full jitter; $(b,0) disables retries.")
  in
  let fault_spec_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "fault-spec" ] ~docv:"SPEC"
          ~doc:
            "Fault-plan spec (point\\@hit=action, see $(b,chaos)) armed on \
             the executor worker for selected requests; repeatable — specs \
             are cycled across the faulted requests.")
  in
  let fault_every_arg =
    Arg.(
      value
      & opt int 3
      & info [ "fault-every" ] ~docv:"N"
          ~doc:
            "With $(b,--fault-spec), arm a fault plan on every $(docv)-th \
             request (the rest stay clean for the digest-consistency \
             check).")
  in
  let run targets socket platform approach op qps concurrency requests
      deadline_s retry_max fault_specs fault_every report =
    match
      Serve.Loadgen.run
        {
          Serve.Loadgen.socket_path = socket;
          targets;
          platform;
          approach = Parcore.Parallelize.approach_name approach;
          op;
          qps;
          concurrency;
          requests;
          deadline_s;
          retry_max;
          retry_base_s =
            Serve.Loadgen.default_config.Serve.Loadgen.retry_base_s;
          retry_cap_s = Serve.Loadgen.default_config.Serve.Loadgen.retry_cap_s;
          fault_specs;
          fault_every = (if fault_specs = [] then 0 else fault_every);
          report_path = Some report;
        }
    with
    | code -> exit code
    | exception Mpsoc_error.Error e -> exit_with e
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay benchmarks against a running $(b,serve) daemon at a \
          configured QPS and concurrency — optionally arming per-request \
          fault plans (chaos mode) and retrying rejections with jittered \
          backoff — and write a latency-percentile report with a per-target \
          solution-digest consistency check")
    Term.(
      const run $ targets $ socket_arg $ platform_arg $ approach_arg $ op_arg
      $ qps_arg $ concurrency_arg $ requests_arg $ deadline_arg
      $ retry_max_arg $ fault_spec_arg $ fault_every_arg $ report_arg)

let observe_cmd =
  let interval_arg =
    Arg.(
      value
      & opt float Serve.Monitor.default_config.Serve.Monitor.interval_s
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Sleep between polls.")
  in
  let count_arg =
    Arg.(
      value
      & opt int Serve.Monitor.default_config.Serve.Monitor.count
      & info [ "count" ] ~docv:"N"
          ~doc:"Polls before exiting; $(b,0) polls forever.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the raw stats body (one JSON object per poll, schema \
             $(b,mpsoc-par/stats/v1)) instead of the table.")
  in
  let run socket interval_s count json =
    match
      Serve.Monitor.run { Serve.Monitor.socket_path = socket; interval_s; count; json }
    with
    | code -> exit code
    | exception Mpsoc_error.Error e -> exit_with e
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:
         "Poll a running $(b,serve) daemon's $(b,stats) op and print live \
          telemetry: sliding latency windows (1m/5m/total, per op and \
          outcome), queue depth, memo/cache hit rates, per-worker \
          utilization and restart counters, flight-recorder occupancy")
    Term.(const run $ socket_arg $ interval_arg $ count_arg $ json_flag)

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    Fmt.pr "benchmarks:@.";
    List.iter
      (fun (b : Benchsuite.Suite.t) ->
        Fmt.pr "  %-16s %s@." b.Benchsuite.Suite.name
          b.Benchsuite.Suite.description)
      Benchsuite.Suite.all;
    Fmt.pr "@.platform presets:@.";
    List.iter
      (fun (name, p) -> Fmt.pr "  %-18s %a@." name Platform.Desc.pp_summary p)
      Platform.Presets.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List benchmarks and platform presets")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "mpsoc-par" ~version:"1.0.0"
       ~doc:
         "ILP-based extraction of task-level parallelism for heterogeneous \
          MPSoCs (reproduction of Cordes et al., ICPP 2013)")
    [
      parallelize_cmd;
      analyze_cmd;
      execute_cmd;
      batch_cmd;
      serve_cmd;
      loadgen_cmd;
      observe_cmd;
      bench_cmd;
      experiments_cmd;
      list_cmd;
    ]

let () = exit (Cmd.eval main)
