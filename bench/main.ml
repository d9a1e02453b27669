(** Benchmark harness.

    With no arguments it regenerates the paper's full evaluation:
    Figures 7(a)/(b), 8(a)/(b) and Table I (experiments E1-E5 of
    DESIGN.md).  Individual artifacts can be selected by name; [ablation]
    adds the E6 study, [micro] runs the Bechamel component
    micro-benchmarks (E7), and [runtime] measures real host execution of
    the partitioned programs on OCaml 5 domains (E9).

    [perf] times the parallelizer itself (E10) — baseline vs. the
    memoized, warm-started, domain-parallel solve engine — and writes
    [BENCH_parallelize.json]; [perf-smoke] is its quick CI subset.

    {v
      dune exec bench/main.exe                 # E1-E5
      dune exec bench/main.exe -- fig7a table1
      dune exec bench/main.exe -- ablation micro runtime
      dune exec bench/main.exe -- perf         # writes BENCH_parallelize.json
    v} *)

let line () = print_endline (String.make 78 '-')

(* Solver totals aggregated across every parallelize run the selected
   experiments perform; reported by [--metrics] at the end. *)
let agg_stats = Ilp.Stats.create ()

let record_stats (a : Parcore.Algorithm.result) =
  Ilp.Stats.merge ~into:agg_stats a.Parcore.Algorithm.stats

(* ------------------------------------------------------------------ *)
(* E7: Bechamel micro-benchmarks                                       *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let fir = Option.get (Benchsuite.Suite.find "fir_256") in
  let prog = Benchsuite.Suite.compile fir in
  let profile = (Interp.Eval.run prog).Interp.Eval.profile in
  let htg = Htg.Build.build prog profile in
  let pf = Platform.Presets.platform_a_accel in
  (* a small LP for the simplex benchmark *)
  let lp_model () =
    let m = Ilp.Model.create () in
    let xs = List.init 12 (fun i -> Ilp.Model.cont_var m (Printf.sprintf "x%d" i)) in
    List.iteri
      (fun i x ->
        Ilp.Model.le m
          (Ilp.Lin_expr.sum
             [ Ilp.Lin_expr.term x;
               Ilp.Lin_expr.term (List.nth xs ((i + 1) mod 12)) ])
          (Ilp.Lin_expr.constant (4. +. float_of_int i)))
      xs;
    Ilp.Model.set_objective m Ilp.Model.Maximize
      (Ilp.Lin_expr.sum (List.map Ilp.Lin_expr.term xs));
    m
  in
  let milp_model () =
    let m = Ilp.Model.create () in
    let xs = List.init 10 (fun i -> Ilp.Model.bool_var m (Printf.sprintf "b%d" i)) in
    Ilp.Model.le m
      (Ilp.Lin_expr.sum
         (List.mapi
            (fun i x -> Ilp.Lin_expr.term ~coef:(float_of_int (2 + (i mod 4))) x)
            xs))
      (Ilp.Lin_expr.constant 11.);
    Ilp.Model.set_objective m Ilp.Model.Maximize
      (Ilp.Lin_expr.sum
         (List.mapi
            (fun i x -> Ilp.Lin_expr.term ~coef:(float_of_int (3 + (i mod 5))) x)
            xs));
    m
  in
  let quick_src =
    "float a[64];\nint main() { int i; for (i = 0; i < 64; i = i + 1) { a[i] = i * 0.5; } return 0; }"
  in
  let quick_prog = Minic.Frontend.compile quick_src in
  let sim_prog =
    let out =
      Parcore.Parallelize.run_program ~cfg:Parcore.Config.fast ~profile
        ~approach:Parcore.Parallelize.Heterogeneous ~platform:pf prog
    in
    out.Parcore.Parallelize.program
  in
  Test.make_grouped ~name:"mpsoc-par"
    [
      Test.make ~name:"frontend/compile"
        (Staged.stage (fun () -> ignore (Minic.Frontend.compile quick_src)));
      Test.make ~name:"interp/profile-64"
        (Staged.stage (fun () -> ignore (Interp.Eval.run quick_prog)));
      Test.make ~name:"htg/build-fir"
        (Staged.stage (fun () -> ignore (Htg.Build.build prog profile)));
      Test.make ~name:"ilp/simplex-12x12"
        (Staged.stage (fun () -> ignore (Ilp.Simplex.solve (lp_model ()))));
      Test.make ~name:"ilp/branch-bound-knapsack"
        (Staged.stage (fun () -> ignore (Ilp.Branch_bound.solve (milp_model ()))));
      Test.make ~name:"sim/run-fir-parallel"
        (Staged.stage (fun () -> ignore (Sim.Engine.run pf sim_prog)));
      Test.make ~name:"htg+split/loop-candidates"
        (Staged.stage (fun () ->
             let loop =
               Array.to_list htg.Htg.Node.children
               |> List.find (fun (c : Htg.Node.t) -> Htg.Node.is_doall c)
             in
             ignore
               (Parcore.Loop_split.solve
                  {
                    Parcore.Loop_split.node = loop;
                    pf;
                    seq_class = 0;
                    budget = 4;
                    cfg = Parcore.Config.fast;
                  })));
    ]

let run_micro () =
  let open Bechamel in
  print_endline "E7: component micro-benchmarks (Bechamel, monotonic clock)";
  line ();
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows = ref [] in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> rows := (name, est) :: !rows
          | _ -> ())
        tbl;
      List.iter
        (fun (name, ns) ->
          if ns >= 1e6 then Printf.printf "  %-34s %10.3f ms/run\n" name (ns /. 1e6)
          else if ns >= 1e3 then
            Printf.printf "  %-34s %10.3f us/run\n" name (ns /. 1e3)
          else Printf.printf "  %-34s %10.1f ns/run\n" name ns)
        (List.sort compare !rows))
    results;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E9: host execution — really run the partitioned programs            *)
(* ------------------------------------------------------------------ *)

(* Unlike E1-E5 (simulated makespans on the modelled MPSoC), this
   artifact executes each parallelized benchmark on the host's OCaml 5
   domains and reports measured wall-clock speedup of the runtime over
   its own single-domain execution, plus task/steal counts. *)
let run_host_execution () =
  print_endline
    "E9: host execution on OCaml 5 domains (measured wall clock, not simulated)";
  line ();
  let pf = Platform.Presets.platform_a_accel in
  let domains = min 4 (Domain.recommended_domain_count ()) in
  Printf.printf "  %-16s %10s %10s %8s %7s %7s %7s\n" "benchmark" "1-dom (s)"
    (Printf.sprintf "%d-dom (s)" domains)
    "speedup" "tasks" "steals" "valid";
  List.iter
    (fun (b : Benchsuite.Suite.t) ->
      let prog = Benchsuite.Suite.compile b in
      let out =
        Parcore.Parallelize.run_program ~cfg:Parcore.Config.fast
          ~approach:Parcore.Parallelize.Heterogeneous ~platform:pf prog
      in
      record_stats out.Parcore.Parallelize.algo;
      let htg = out.Parcore.Parallelize.htg in
      let sol = out.Parcore.Parallelize.algo.Parcore.Algorithm.root in
      let seq = Runtime.Exec.run ~domains:1 prog htg sol in
      let par = Runtime.Exec.run ~domains prog htg sol in
      let valid = Runtime.Exec.ret_equal par.Runtime.Exec.ret seq.Runtime.Exec.ret in
      let m = par.Runtime.Exec.metrics in
      Printf.printf "  %-16s %10.3f %10.3f %7.2fx %7d %7d %7s\n"
        b.Benchsuite.Suite.name seq.Runtime.Exec.metrics.Runtime.Metrics.wall_s
        m.Runtime.Metrics.wall_s
        (seq.Runtime.Exec.metrics.Runtime.Metrics.wall_s /. m.Runtime.Metrics.wall_s)
        m.Runtime.Metrics.n_tasks_spawned m.Runtime.Metrics.n_steals
        (if valid then "ok" else "FAIL"))
    Benchsuite.Suite.all;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E10: compile-side performance — the parallelizer itself             *)
(* ------------------------------------------------------------------ *)

(* Times end-to-end [Algorithm.parallelize] for the suite under three
   configurations and writes BENCH_parallelize.json so the perf
   trajectory of the solve engine is tracked from this PR onward:

   - [baseline]: the pre-optimization driver — sequential, no solve
     cache, no sweep warm-starting, no deterministic work limit (the
     2 s wall budget per ILP is what bounds hard solves, as it
     historically did);
   - [jobs1]:    the optimized engine on one domain;
   - [jobsN]:    the optimized engine on [recommended_domain_count]
     domains.

   The optimized runs disable the wall budget so the deterministic work
   limit is the only solve bound, and the harness asserts that [jobs1]
   and [jobsN] produce bit-identical solution sets. *)

let perf_baseline_cfg =
  {
    Parcore.Config.default with
    Parcore.Config.jobs = 1;
    solve_cache = false;
    sweep_warm_start = false;
    ilp_work_limit = 0.;
    (* the baseline column measures the search without the acceleration
       toggles (branch & bound is still seeded with the heuristic point,
       which is unconditional) *)
    ilp_presolve = false;
    ilp_symmetry = false;
    ilp_cuts = false;
  }

let perf_opt_cfg ~jobs ~work_limit =
  {
    Parcore.Config.default with
    Parcore.Config.jobs = jobs;
    ilp_time_limit_s = infinity;
    ilp_work_limit = work_limit;
  }

(* canonical projection of a parallelization result for bit-identity
   checks: root choice, per-class root set, and every node's set *)
let perf_canon (r : Parcore.Algorithm.result) =
  ( r.Parcore.Algorithm.root,
    r.Parcore.Algorithm.root_set,
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.Parcore.Algorithm.sets []) )

type perf_row = {
  pr_name : string;
  pr_baseline_ms : float;
  pr_jobs1_ms : float;
  pr_jobsn_ms : float;
  pr_ilps_baseline : int;
  pr_ilps_opt : int;
  pr_cache_hits : int;
  (* v3 solver-effort counters, from the deterministic jobs=1 run *)
  pr_nodes : int;
  pr_pivots : int;
  pr_cuts : int;
  pr_identical : bool;
  (* v4 solver-portfolio frontier: cold-cache jobs=1 wall time and
     simulated makespan per engine.  The exact makespan is the quality
     reference the CI gate holds the portfolio to. *)
  pr_exact_makespan_us : float;
  pr_port_ms : float;
  pr_port_makespan_us : float;
  pr_port_wins_heur : int;
  pr_port_wins_exact : int;
  pr_port_gap_max : float;
  pr_heur_ms : float;
  pr_heur_makespan_us : float;
}

let run_perf ~smoke () =
  let ncores = Domain.recommended_domain_count () in
  let pf = Platform.Presets.platform_a_accel in
  let benches =
    if smoke then
      List.filter
        (fun (b : Benchsuite.Suite.t) ->
          List.mem b.Benchsuite.Suite.name
            [ "boundary_value"; "compress"; "mult_10" ])
        Benchsuite.Suite.all
    else Benchsuite.Suite.all
  in
  let work_limit =
    if smoke then Parcore.Config.fast.Parcore.Config.ilp_work_limit
    else Parcore.Config.default.Parcore.Config.ilp_work_limit
  in
  Printf.printf
    "E10: compile-side perf — parallelize wall time (ncores=%d%s)\n" ncores
    (if smoke then ", smoke subset" else "");
  line ();
  Printf.printf "  %-16s %12s %11s %11s %6s %6s %5s %6s %8s %5s %8s %5s\n"
    "benchmark" "baseline(ms)" "jobs1(ms)" "jobsN(ms)" "ilp-b" "ilp-o" "hits"
    "nodes" "pivots" "cuts" "speedup" "ident";
  let rows =
    List.map
      (fun (b : Benchsuite.Suite.t) ->
        let prog = Benchsuite.Suite.compile b in
        let profile = (Interp.Eval.run prog).Interp.Eval.profile in
        let once cfg =
          let out =
            Parcore.Parallelize.run_program ~cfg ~profile
              ~approach:Parcore.Parallelize.Heterogeneous ~platform:pf prog
          in
          record_stats out.Parcore.Parallelize.algo;
          out
        in
        let algo (o : Parcore.Parallelize.outcome) = o.Parcore.Parallelize.algo in
        let mk o = (Parcore.Parallelize.metrics o).Sim.Engine.makespan_us in
        let base = algo (once perf_baseline_cfg) in
        let opt1_out = once (perf_opt_cfg ~jobs:1 ~work_limit) in
        let opt1 = algo opt1_out in
        let optn = algo (once (perf_opt_cfg ~jobs:ncores ~work_limit)) in
        let solver_cfg s =
          { (perf_opt_cfg ~jobs:1 ~work_limit) with Parcore.Config.solver = s }
        in
        let port_out = once (solver_cfg Parcore.Config.Portfolio) in
        let heur_out = once (solver_cfg Parcore.Config.Heuristic) in
        let ms (a : Parcore.Algorithm.result) =
          a.Parcore.Algorithm.wall_time_s *. 1000.
        in
        let pstats = (algo port_out).Parcore.Algorithm.stats in
        let row =
          {
            pr_name = b.Benchsuite.Suite.name;
            pr_baseline_ms = ms base;
            pr_jobs1_ms = ms opt1;
            pr_jobsn_ms = ms optn;
            pr_ilps_baseline = base.Parcore.Algorithm.stats.Ilp.Stats.ilps;
            pr_ilps_opt = opt1.Parcore.Algorithm.stats.Ilp.Stats.ilps;
            pr_cache_hits = opt1.Parcore.Algorithm.stats.Ilp.Stats.cache_hits;
            pr_nodes = opt1.Parcore.Algorithm.stats.Ilp.Stats.bb_nodes;
            pr_pivots = opt1.Parcore.Algorithm.stats.Ilp.Stats.pivots;
            pr_cuts = opt1.Parcore.Algorithm.stats.Ilp.Stats.cuts;
            pr_identical = perf_canon opt1 = perf_canon optn;
            pr_exact_makespan_us = mk opt1_out;
            pr_port_ms = ms (algo port_out);
            pr_port_makespan_us = mk port_out;
            pr_port_wins_heur = pstats.Ilp.Stats.wins_heuristic;
            pr_port_wins_exact = pstats.Ilp.Stats.wins_exact;
            pr_port_gap_max = pstats.Ilp.Stats.quality_gap_max;
            pr_heur_ms = ms (algo heur_out);
            pr_heur_makespan_us = mk heur_out;
          }
        in
        Printf.printf
          "  %-16s %12.1f %11.1f %11.1f %6d %6d %5d %6d %8d %5d %7.2fx %5s\n"
          row.pr_name row.pr_baseline_ms row.pr_jobs1_ms row.pr_jobsn_ms
          row.pr_ilps_baseline row.pr_ilps_opt row.pr_cache_hits row.pr_nodes
          row.pr_pivots row.pr_cuts
          (row.pr_baseline_ms /. row.pr_jobsn_ms)
          (if row.pr_identical then "ok" else "FAIL");
        row)
      benches
  in
  print_newline ();
  Printf.printf
    "  solver frontier (cold cache, jobs=1): wall ms / simulated makespan us\n";
  Printf.printf "  %-16s %11s %11s %11s %11s %11s %9s %7s\n" "benchmark"
    "ilp(ms)" "port(ms)" "heur(ms)" "port-mk" "heur-mk" "wins h/e" "gap";
  List.iter
    (fun r ->
      Printf.printf
        "  %-16s %11.1f %11.1f %11.1f %10.4fx %10.4fx %5d/%-3d %6.2f%%\n"
        r.pr_name r.pr_jobs1_ms r.pr_port_ms r.pr_heur_ms
        (r.pr_port_makespan_us /. r.pr_exact_makespan_us)
        (r.pr_heur_makespan_us /. r.pr_exact_makespan_us)
        r.pr_port_wins_heur r.pr_port_wins_exact
        (100. *. r.pr_port_gap_max))
    rows;
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  let sumi f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let total_base = sum (fun r -> r.pr_baseline_ms) in
  let total_optn = sum (fun r -> r.pr_jobsn_ms) in
  let total_hits = sumi (fun r -> r.pr_cache_hits) in
  let total_ilps = sumi (fun r -> r.pr_ilps_opt) in
  let total_nodes = sumi (fun r -> r.pr_nodes) in
  let total_pivots = sumi (fun r -> r.pr_pivots) in
  let total_cuts = sumi (fun r -> r.pr_cuts) in
  let hit_rate =
    if total_hits + total_ilps = 0 then 0.
    else float_of_int total_hits /. float_of_int (total_hits + total_ilps)
  in
  let all_identical = List.for_all (fun r -> r.pr_identical) rows in
  let speedup = total_base /. total_optn in
  let total_ilp1 = sum (fun r -> r.pr_jobs1_ms) in
  let total_port = sum (fun r -> r.pr_port_ms) in
  let total_heur = sum (fun r -> r.pr_heur_ms) in
  let total_wins_h = sumi (fun r -> r.pr_port_wins_heur) in
  let total_wins_e = sumi (fun r -> r.pr_port_wins_exact) in
  let worst_gap =
    List.fold_left (fun acc r -> Float.max acc r.pr_port_gap_max) 0. rows
  in
  Printf.printf
    "  total: baseline %.0f ms, optimized jobs=%d %.0f ms — speedup %.2fx, \
     cache hit rate %.1f%%, %d B&B nodes, %d pivots, %d cuts, bit-identical \
     across jobs: %s\n"
    total_base ncores total_optn speedup (100. *. hit_rate) total_nodes
    total_pivots total_cuts
    (if all_identical then "yes" else "NO");
  Printf.printf
    "  frontier: ilp %.0f ms, portfolio %.0f ms (%.2fx faster, wins %d \
     heur / %d exact, worst gap %.2f%%), heuristic %.0f ms (%.2fx faster)\n"
    total_ilp1 total_port
    (total_ilp1 /. total_port)
    total_wins_h total_wins_e (100. *. worst_gap) total_heur
    (total_ilp1 /. total_heur);
  (* hand-rolled JSON: flat schema, no escaping needed for these names *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"mpsoc-par/parallelize-perf/v4\",\n";
  (* provenance header (v2): git rev, compiler, host, UTC timestamp;
     v3 adds the per-benchmark solver-effort counters bb_nodes / pivots /
     cuts_added taken from the deterministic jobs=1 run; v4 adds the
     per-benchmark "solvers" section (cold-cache jobs=1 wall time and
     simulated makespan per engine, plus the portfolio's per-node race
     tallies) and the "frontier" total — what the CI quality gate reads *)
  List.iter
    (fun (k, v) -> Printf.bprintf buf "  %S: %s,\n" k (Trace_json.to_string v))
    (Observe.run_metadata ());
  Printf.bprintf buf "  \"smoke\": %b,\n" smoke;
  Printf.bprintf buf "  \"ncores\": %d,\n" ncores;
  (* the --jobs value the jobsN column actually ran with — host_domains
     alone does not make numbers comparable across machines *)
  Printf.bprintf buf "  \"jobs\": %d,\n" ncores;
  Printf.bprintf buf "  \"platform\": %S,\n" pf.Platform.Desc.name;
  Printf.bprintf buf "  \"work_limit\": %.0f,\n" work_limit;
  Buffer.add_string buf "  \"benchmarks\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf buf
        "    { \"name\": %S, \"baseline_ms\": %.1f, \"jobs1_ms\": %.1f, \
         \"jobsN_ms\": %.1f, \"ilps_baseline\": %d, \"ilps_optimized\": %d, \
         \"cache_hits\": %d, \"bb_nodes\": %d, \"pivots\": %d, \
         \"cuts_added\": %d, \"speedup\": %.3f, \"identical\": %b,\n\
        \      \"solvers\": {\n\
        \        \"ilp\": { \"wall_ms\": %.1f, \"makespan_us\": %.1f },\n\
        \        \"portfolio\": { \"wall_ms\": %.1f, \"makespan_us\": %.1f, \
         \"engine_wins\": { \"heuristic\": %d, \"exact\": %d }, \
         \"quality_gap_max\": %.6f },\n\
        \        \"heuristic\": { \"wall_ms\": %.1f, \"makespan_us\": %.1f } \
         } }%s\n"
        r.pr_name r.pr_baseline_ms r.pr_jobs1_ms r.pr_jobsn_ms
        r.pr_ilps_baseline r.pr_ilps_opt r.pr_cache_hits r.pr_nodes r.pr_pivots
        r.pr_cuts
        (r.pr_baseline_ms /. r.pr_jobsn_ms)
        r.pr_identical r.pr_jobs1_ms r.pr_exact_makespan_us r.pr_port_ms
        r.pr_port_makespan_us r.pr_port_wins_heur r.pr_port_wins_exact
        r.pr_port_gap_max r.pr_heur_ms r.pr_heur_makespan_us
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string buf "  ],\n";
  Printf.bprintf buf
    "  \"total\": { \"baseline_ms\": %.1f, \"optimized_ms\": %.1f, \
     \"speedup\": %.3f, \"cache_hit_rate\": %.3f, \"bb_nodes\": %d, \
     \"pivots\": %d, \"cuts_added\": %d, \"identical\": %b },\n"
    total_base total_optn speedup hit_rate total_nodes total_pivots total_cuts
    all_identical;
  Printf.bprintf buf
    "  \"frontier\": { \"ilp_ms\": %.1f, \"portfolio_ms\": %.1f, \
     \"heuristic_ms\": %.1f, \"portfolio_speedup\": %.3f, \"engine_wins\": \
     { \"heuristic\": %d, \"exact\": %d }, \"quality_gap_max\": %.6f }\n"
    total_ilp1 total_port total_heur
    (total_ilp1 /. total_port)
    total_wins_h total_wins_e worst_gap;
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_parallelize.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  written to BENCH_parallelize.json\n";
  print_newline ();
  if not all_identical then exit 1

(* ------------------------------------------------------------------ *)
(* E11: serve-side saturation — executor-pool scaling under load       *)
(* ------------------------------------------------------------------ *)

(* Drives the resident daemon with the load generator over an
   offered-QPS ladder and locates the saturation point — the highest
   rung whose achieved throughput stays within 5% of the offered rate —
   for 1 and 2 executor workers.  The solve cache is disabled so every
   request costs a real solve; with the hot memo on, the first request
   warms it and the ladder would measure protocol plumbing, not the
   engine.  Results merge into BENCH_parallelize.json under
   "serve_saturation" (read-modify-write: the E10 sections are kept). *)

(* small but parallelizable: two independent DOALL loops; a fresh solve
   costs ~0.5 s, so a single executor saturates around 2 rps *)
let sat_src =
  {|
float a[256]; float b[256];
int main() {
  int i;
  for (i = 0; i < 256; i = i + 1) { a[i] = sin(i * 0.01) * 2.0; }
  for (i = 0; i < 256; i = i + 1) { b[i] = cos(i * 0.02) + 1.0; }
  return (int) (a[5] + b[7]);
}
|}

let sat_rpc sock req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Serve.Protocol.write_request fd req;
      match Serve.Protocol.read_response fd with
      | `Response r -> r
      | `Eof | `Error _ -> failwith "serve-sat: rpc failed")

let run_serve_sat () =
  let module J = Trace_json in
  let ladder = [ 2.; 4.; 8. ] in
  let requests = 12 and concurrency = 4 in
  Printf.printf
    "E11: serve saturation — %d requests/rung, %d connections, offered %s rps\n"
    requests concurrency
    (String.concat "/" (List.map (Printf.sprintf "%g") ladder));
  let measure executors =
    let dir = Filename.temp_file "serve-sat" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let target = Filename.concat dir "prog.c" in
    let oc = open_out target in
    output_string oc sat_src;
    close_out oc;
    let sock = Filename.concat dir "s.sock" in
    let cfg =
      { Parcore.Config.fast with Parcore.Config.solve_cache = false }
    in
    let server =
      Domain.spawn (fun () ->
          Serve.Daemon.run
            {
              Serve.Daemon.default_config with
              Serve.Daemon.socket_path = sock;
              executors;
              cfg;
            })
    in
    let rec wait n =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> Unix.close fd
      | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if n = 0 then failwith "serve-sat: daemon never came up";
          Unix.sleepf 0.05;
          wait (n - 1)
    in
    wait 100;
    let rungs =
      List.map
        (fun qps ->
          let r =
            Serve.Loadgen.run_result
              {
                Serve.Loadgen.default_config with
                Serve.Loadgen.socket_path = sock;
                targets = [ target ];
                platform = "platform-a-accel";
                qps;
                concurrency;
                requests;
                report_path = None;
              }
          in
          Printf.printf
            "  executors=%d offered %5.1f rps -> achieved %5.2f rps, p50 \
             %7.1f ms, p99 %7.1f ms\n\
             %!"
            executors qps r.Serve.Loadgen.throughput_rps
            r.Serve.Loadgen.latency.Serve.Latency.p50_ms
            r.Serve.Loadgen.latency.Serve.Latency.p99_ms;
          (qps, r))
        ladder
    in
    ignore
      (sat_rpc sock (Serve.Protocol.request ~id:"drain" Serve.Protocol.Drain));
    let code = Domain.join server in
    if code <> 0 then Printf.eprintf "serve-sat: daemon exit %d\n" code;
    (try Unix.unlink target with Unix.Unix_error _ | Sys_error _ -> ());
    (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ());
    rungs
  in
  let saturation rungs =
    List.fold_left
      (fun acc (qps, r) ->
        if r.Serve.Loadgen.throughput_rps >= 0.95 *. qps then Float.max acc qps
        else acc)
      0. rungs
  in
  let section_of rungs =
    J.Obj
      [
        ("saturation_rps", J.Num (saturation rungs));
        ( "rungs",
          J.List
            (List.map
               (fun (qps, (r : Serve.Loadgen.result)) ->
                 J.Obj
                   [
                     ("offered_rps", J.Num qps);
                     ("achieved_rps", J.Num r.Serve.Loadgen.throughput_rps);
                     ( "p50_ms",
                       J.Num r.Serve.Loadgen.latency.Serve.Latency.p50_ms );
                     ( "p99_ms",
                       J.Num r.Serve.Loadgen.latency.Serve.Latency.p99_ms );
                     ("rejected", J.Num (float_of_int r.Serve.Loadgen.rejected));
                   ])
               rungs) );
      ]
  in
  let r1 = measure 1 in
  let r2 = measure 2 in
  Printf.printf "  saturation: executors=1 at %g rps, executors=2 at %g rps\n"
    (saturation r1) (saturation r2);
  let section =
    J.Obj
      [
        ("requests_per_rung", J.Num (float_of_int requests));
        ("concurrency", J.Num (float_of_int concurrency));
        ("solve_cache", J.Bool false);
        (* executor scaling is bounded by the host: on a single-core
           runner the two-worker numbers measure contention, not
           parallelism *)
        ( "host_domains",
          J.Num (float_of_int (Domain.recommended_domain_count ())) );
        ("executors_1", section_of r1);
        ("executors_2", section_of r2);
      ]
  in
  let path = "BENCH_parallelize.json" in
  let merged =
    let fresh () = J.Obj (Observe.run_metadata ()) in
    let doc =
      match In_channel.with_open_bin path In_channel.input_all with
      | txt -> ( try J.parse txt with _ -> fresh ())
      | exception Sys_error _ -> fresh ()
    in
    match doc with
    | J.Obj fields ->
        J.Obj
          (List.filter (fun (k, _) -> k <> "serve_saturation") fields
          @ [ ("serve_saturation", section) ])
    | _ -> J.Obj [ ("serve_saturation", section) ]
  in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true merged);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  merged into %s\n" path;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv |> List.tl in
  (* --trace FILE / --metrics FILE arm the span recorder around the
     selected experiments; everything else is an experiment id *)
  let rec parse trace metrics acc = function
    | "--trace" :: f :: rest -> parse (Some f) metrics acc rest
    | "--metrics" :: f :: rest -> parse trace (Some f) acc rest
    | a :: rest -> parse trace metrics (a :: acc) rest
    | [] -> (trace, metrics, List.rev acc)
  in
  let trace_file, metrics_file, args = parse None None [] argv in
  let armed = trace_file <> None || metrics_file <> None in
  if armed then Trace.start ();
  let t0 = Trace.now_s () in
  let which = if args = [] then [ "fig7a"; "fig7b"; "fig8a"; "fig8b"; "table1" ] else args in
  let ctx = Report.Experiments.create () in
  List.iter
    (fun id ->
      Trace.span ~cat:"phase" id @@ fun () ->
      (match id with
      | "fig7a" -> print_string (Report.Experiments.(render_figure (fig7a ctx)))
      | "fig7b" -> print_string (Report.Experiments.(render_figure (fig7b ctx)))
      | "fig8a" -> print_string (Report.Experiments.(render_figure (fig8a ctx)))
      | "fig8b" -> print_string (Report.Experiments.(render_figure (fig8b ctx)))
      | "table1" -> print_string (Report.Experiments.(render_table1 (table1 ctx)))
      | "ablation" ->
          print_string
            (Report.Experiments.(
               render_ablation (ablation ctx Platform.Presets.platform_a_accel)))
      | "energy" ->
          print_string
            (Report.Experiments.(
               render_energy (energy_table ctx Platform.Presets.platform_a_accel)))
      | "micro" -> run_micro ()
      | "runtime" -> run_host_execution ()
      | "perf" -> run_perf ~smoke:false ()
      | "perf-smoke" -> run_perf ~smoke:true ()
      | "serve-sat" -> run_serve_sat ()
      | other ->
          Printf.eprintf
            "unknown experiment %S (expected fig7a fig7b fig8a fig8b table1 \
             ablation energy micro runtime perf perf-smoke serve-sat)\n"
            other;
          exit 1);
      line ())
    which;
  if armed then
    match Trace.stop () with
    | None -> ()
    | Some c ->
        Option.iter (fun path -> Trace_chrome.write ~path c) trace_file;
        Option.iter
          (fun path ->
            Observe.write_json ~path
              (Observe.metrics_doc ~generated_by:"bench/main.exe"
                 ~phases:(Observe.phases_of_events c.Trace.events)
                 ~wall_s:(Trace.now_s () -. t0)
                 agg_stats))
          metrics_file
