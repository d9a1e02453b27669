(** The three closed-loop workloads, run in this process against the
    library's public entry points: one client, one op at a time, the next
    op starting when the previous one returns.

    An op is one call of [Parallelize.run_program_result] (solve-*,
    profile from set-up) or [Parallelize.run_result] (compile-portfolio,
    from source text), plus the simulated speedup and the solution
    digest a CLI user gets back.  Only ops are timed; output checks run
    between them with the clock stopped. *)

open Parcore

type input = {
  name : string;  (** distinct per input within a run *)
  kernel : string;
  platform : Platform.Desc.t;
  source : string;  (** generated Mini-C source *)
  len : int;  (** the kernel's length in this input *)
  prepared : (Minic.Ast.program * Interp.Profile.t) option;
      (** compiled and profiled in set-up (solve-* only) *)
}

type result = {
  digest : string;
  speedup : float;
  stats : Ilp.Stats.t;
  steps : int;  (** interpreted statements inside the op *)
  nodes : int;  (** HTG nodes *)
  htg : Htg.Node.t;
  root : Solution.t;
}

type workload = {
  cfg : Config.t;
  setup : unit -> unit -> input list;
      (** one set-up: returns the round generator (rounds of inputs) *)
  block : int;
      (** rounds in a block.  A run measures whole blocks; its first
          block is the fixed input set of [speedup_geomean] and of the
          traced run *)
  block_s : float;
      (** a block's op time on the reference host: a run measures the
          fewest whole blocks whose op time reaches [--seconds] there, a
          count fixed by [--seconds] alone, so every run of a seed covers
          the same inputs however fast the host or the program is *)
  setup_reps : int;  (** from-scratch set-ups; [setup_s] is their median *)
  recheck : bool;
      (** re-run the run's first input, untimed, to check its digest;
          off where one op costs as much as the timed phase *)
}

(* ---- one op, untraced and traced ------------------------------------ *)

let finish (o : Parallelize.outcome) =
  let algo = o.Parallelize.algo in
  {
    digest = Algorithm.digest algo;
    speedup = Parallelize.speedup o;
    stats = algo.Algorithm.stats;
    steps = 0;
    nodes = Htg.Node.size o.Parallelize.htg;
    htg = o.Parallelize.htg;
    root = algo.Algorithm.root;
  }

(** The op as a user runs it: the library's one-call entry point. *)
let run_op cfg (i : input) : (result, string) Stdlib.result =
  let approach = Parallelize.Heterogeneous in
  let out =
    match i.prepared with
    | Some (prog, profile) ->
        Parallelize.run_program_result ~cfg ~profile ~approach
          ~platform:i.platform prog
    | None -> Parallelize.run_result ~cfg ~approach ~platform:i.platform i.source
  in
  match out with
  | Ok o -> Ok (finish o)
  | Error e -> Error (Mpsoc_error.to_string e)

(** The same op, layer by layer, each call inside a span: the sequence
    [run_program_result] performs (frontend, interpreter, HTG build,
    Algorithm 1, implementation), then the simulation and digest.
    [memo] is shared across calls, as a daemon's hot memo is. *)
let traced_op ?memo sp cfg (i : input) : (result, string) Stdlib.result =
  let span l f = Spans.span sp l f in
  match
    span "op" (fun () ->
        let prog, profile, steps =
          match i.prepared with
          | Some (prog, profile) -> (prog, profile, 0)
          | None ->
              let prog = span "minic" (fun () -> Minic.Frontend.compile i.source) in
              let r =
                span "interp" (fun () ->
                    Interp.Eval.run ~max_steps:cfg.Config.max_steps prog)
              in
              (prog, r.Interp.Eval.profile, r.Interp.Eval.steps)
        in
        let htg =
          span "htg" (fun () ->
              Htg.Build.build ~max_children:cfg.Config.max_children prog profile)
        in
        let algo =
          span "core" (fun () -> Algorithm.parallelize ~cfg ?memo i.platform htg)
        in
        span "implement" (fun () ->
            let program =
              Implement.realize ~mode:Implement.Pre_mapped i.platform htg
                algo.Algorithm.root
            in
            let seq_program = Implement.realize_sequential htg in
            {
              digest = Algorithm.digest algo;
              speedup =
                Sim.Engine.speedup i.platform ~sequential:seq_program
                  ~parallel:program;
              stats = algo.Algorithm.stats;
              steps;
              nodes = Htg.Node.size htg;
              htg;
              root = algo.Algorithm.root;
            }))
  with
  | r -> Ok r
  | exception Mpsoc_error.Error e -> Error (Mpsoc_error.to_string e)
  | exception e -> Error (Printexc.to_string e)

(* ---- checks ---------------------------------------------------------- *)

type book = {
  digests : (string, string) Hashtbl.t;  (** input name -> digest *)
  validated : (string, unit) Hashtbl.t;  (** kernels validated *)
  to_validate : (string, input * result) Hashtbl.t;  (** smallest per kernel *)
  mutable first : input option;  (** the run's first checked input *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let book () =
  {
    digests = Hashtbl.create 256;
    validated = Hashtbl.create 16;
    to_validate = Hashtbl.create 16;
    first = None;
    attempted = 0;
    failed = 0;
    failures = [];
  }

let fail b name why =
  b.failed <- b.failed + 1;
  if List.length b.failures < 20 then b.failures <- (name ^ ": " ^ why) :: b.failures

(** Output checks on one op's answer; [true] iff it passed. *)
let check b (i : input) (r : (result, string) Stdlib.result) =
  b.attempted <- b.attempted + 1;
  if b.first = None then b.first <- Some i;
  match r with
  | Error e ->
      fail b i.name e;
      false
  | Ok r ->
      let theo = Platform.Desc.theoretical_speedup i.platform in
      let eps = 1e-9 in
      if not (r.speedup >= 1. -. eps && r.speedup <= theo +. eps) then begin
        fail b i.name (Printf.sprintf "speedup %g outside [1, %g]" r.speedup theo);
        false
      end
      else
        match Hashtbl.find_opt b.digests i.name with
        | Some d when d <> r.digest ->
            fail b i.name (Printf.sprintf "digest %s, earlier %s" r.digest d);
            false
        | _ ->
            Hashtbl.replace b.digests i.name r.digest;
            (match Hashtbl.find_opt b.to_validate i.kernel with
            | Some ((j : input), _) when j.len <= i.len -> ()
            | _ -> Hashtbl.replace b.to_validate i.kernel (i, r));
            true

(** Differential validation of one result per kernel (its smallest
    input, to keep the check short): the host runtime
    runs the extracted parallel program and must return what the
    sequential interpreter returns. *)
let validate_all b =
  Hashtbl.iter
    (fun kernel ((i : input), r) ->
      let prog =
        match i.prepared with
        | Some (p, _) -> p
        | None -> Minic.Frontend.compile i.source
      in
      match Runtime.Exec.validate ~domains:2 ~timeout_s:60. prog r.htg r.root with
      | _, _, true -> Hashtbl.replace b.validated kernel ()
      | _, _, false -> fail b i.name "parallel runtime disagrees with the interpreter"
      | exception e -> fail b i.name ("validation raised " ^ Printexc.to_string e))
    b.to_validate

(* ---- the closed loop ------------------------------------------------- *)

type pass = {
  ops : int;
  repeats : int;  (** ops whose input an earlier op of the run had *)
  busy_s : float;  (** summed op wall time *)
  op_ms : float list;
  scaled_busy_s : float;  (** [busy_s] scaled to the reference host *)
  scaled_op_ms : float list;
  speedups : (string * float) list;
      (** input -> speedup, over the first block only: a fixed input set,
          so the geomean does not depend on how many ops fit in a run *)
  results : (input * result) list;
}

let empty_pass =
  {
    ops = 0;
    repeats = 0;
    busy_s = 0.;
    op_ms = [];
    scaled_busy_s = 0.;
    scaled_op_ms = [];
    speedups = [];
    results = [];
  }

(** Run [blocks] whole blocks; [fixed] keeps the results (the traced
    run's input set).  Ops are timed on [stopwatch], which scales each
    op by the host speed around it; without one, scaled times are the
    wall times. *)
let closed_loop ?(fixed = false) ?stopwatch ~blocks ~op b (w : workload) next_round =
  let p = ref empty_pass in
  let rounds = ref 0 in
  let timed f =
    match stopwatch with
    | Some sw -> Util.timed sw f
    | None ->
        let t0 = Util.now () in
        let v = f () in
        let dt = Util.now () -. t0 in
        (v, dt, dt)
  in
  while !rounds < blocks * w.block do
    List.iter
      (fun (i : input) ->
        let seen = Hashtbl.mem b.digests i.name in
        let r, dt, scaled = timed (fun () -> op i) in
        let ok = check b i r in
        let q = !p in
        p :=
          {
            ops = q.ops + 1;
            repeats = (if seen then q.repeats + 1 else q.repeats);
            busy_s = q.busy_s +. dt;
            op_ms = (dt *. 1000.) :: q.op_ms;
            scaled_busy_s = q.scaled_busy_s +. scaled;
            scaled_op_ms = (scaled *. 1000.) :: q.scaled_op_ms;
            speedups =
              (match r with
              | Ok r when ok && !rounds < w.block -> (i.name, r.speedup) :: q.speedups
              | _ -> q.speedups);
            results =
              (match r with Ok r when ok && fixed -> (i, r) :: q.results | _ -> q.results);
          })
      (next_round ());
    incr rounds
  done;
  !p

let distinct_geomean speedups =
  let seen = Hashtbl.create 64 in
  List.iter (fun (n, s) -> Hashtbl.replace seen n s) speedups;
  Util.geomean (Hashtbl.fold (fun _ s a -> s :: a) seen [])

(* ---- workloads ------------------------------------------------------- *)

let exact_cfg =
  (* wall-clock limit off: the deterministic work limit bounds each solve *)
  { Config.default with Config.solver = Config.Ilp; ilp_time_limit_s = infinity }

let heuristic_cfg = { exact_cfg with Config.solver = Config.Heuristic }
let portfolio_cfg = { exact_cfg with Config.solver = Config.Portfolio }
let platform_a = "platform-a-accel"

let preset name =
  match Platform.Presets.find name with
  | Some p -> p
  | None -> failwith ("unknown preset " ^ name)

(** Compile and profile a kernel's source: the solve-* set-up. *)
let prepare cfg source =
  let prog = Minic.Frontend.compile source in
  let r = Interp.Eval.run ~max_steps:cfg.Config.max_steps prog in
  (prog, r.Interp.Eval.profile)

(** solve-exact: fir_256 and mult_10 on platform A with the exact
    engine.  Its inputs are fixed: the seed changes nothing. *)
let solve_exact () =
  let kernels = [ "fir_256"; "mult_10" ] in
  let setup () =
    let platform = preset platform_a in
    let inputs =
      List.map
        (fun k ->
          let x = Gen.variant k ~len:(Gen.scaled_len k 1.) in
          {
            name = k ^ "/" ^ platform_a;
            kernel = k;
            platform;
            source = x.Gen.source;
            len = x.Gen.len;
            prepared = Some (prepare exact_cfg x.Gen.source);
          })
        kernels
    in
    fun () -> inputs
  in
  {
    cfg = exact_cfg;
    setup;
    block = 1;
    block_s = 16.;
    setup_reps = 5;
    recheck = false;
  }

(** solve-heuristic: the ten kernels, profiled in set-up, crossed with
    generated platforms; a round is the ten kernels on one new platform
    and a block cycles once through every platform shape. *)
let solve_heuristic ~seed =
  let setup () =
    let prepared =
      List.map
        (fun k ->
          let x = Gen.variant k ~len:(Gen.scaled_len k 1.) in
          (x, prepare heuristic_cfg x.Gen.source))
        Gen.kernels
    in
    let next_platform = Gen.platforms ~seed ~stream:1 in
    fun () ->
      let platform = Gen.parse_platform (next_platform ()) in
      List.map
        (fun ((x : Gen.variant), p) ->
          {
            name = x.Gen.name ^ "/" ^ platform.Platform.Desc.name;
            kernel = x.Gen.kernel;
            platform;
            source = x.Gen.source;
            len = x.Gen.len;
            prepared = Some p;
          })
        prepared
  in
  {
    cfg = heuristic_cfg;
    setup;
    block = List.length Gen.shapes;
    block_s = 2.6;
    setup_reps = 5;
    recheck = true;
  }

(** compile-portfolio: seeded size variants of the ten kernels compiled
    from source with the portfolio engine; a block is a pair of rounds
    whose scales mirror each other.  Set-up generates the first rounds
    of the variant stream and runs one untimed warm-up op on a variant
    outside it. *)
let compile_portfolio ~seed =
  let setup () =
    let platform = preset platform_a in
    let v = Gen.variants ~seed ~stream:2 ~centre:1.0 ~spread:0.1 in
    let input (x : Gen.variant) =
      {
        name = x.Gen.name ^ "/" ^ platform_a;
        kernel = x.Gen.kernel;
        platform;
        source = x.Gen.source;
        len = x.Gen.len;
        prepared = None;
      }
    in
    let pregenerated = Queue.create () in
    for _ = 1 to 6 do
      Queue.push (List.map input (Gen.next_round v)) pregenerated
    done;
    let warm = Gen.variant "mult_10" ~len:(Gen.scaled_len "mult_10" 0.5) in
    ignore
      (Parallelize.run_result ~cfg:portfolio_cfg ~approach:Parallelize.Heterogeneous
         ~platform warm.Gen.source);
    fun () ->
      match Queue.take_opt pregenerated with
      | Some r -> r
      | None -> List.map input (Gen.next_round v)
  in
  {
    cfg = portfolio_cfg;
    setup;
    block = 2;
    block_s = 7.8;
    setup_reps = 5;
    recheck = true;
  }

(* ---- running a workload --------------------------------------------- *)

(** Set up [w.setup_reps] times (each from scratch) and keep the last;
    each set-up is timed on a stopwatch of its own, which calibrates for
    a quarter of the time of each.  Returns the median wall time, the
    median scaled time and the round generator. *)
let timed_setup cal (w : workload) =
  let sw = Util.stopwatch cal ~share:0.25 in
  let times = ref [] and last = ref None in
  for _ = 1 to w.setup_reps do
    let g, dt, scaled = Util.timed sw w.setup in
    times := (dt, scaled) :: !times;
    last := Some g
  done;
  ( Util.median (List.map fst !times),
    Util.median (List.map snd !times),
    Option.get !last )

let stats_sum results =
  let s = Ilp.Stats.create () in
  List.iter (fun (_, r) -> Ilp.Stats.merge ~into:s r.stats) results;
  s

let limited (s : Ilp.Stats.t) =
  s.Ilp.Stats.deg_incumbent + s.Ilp.Stats.deg_lp_round + s.Ilp.Stats.deg_greedy
  + s.Ilp.Stats.deg_seq

let ms x = x *. 1000.

let exact_win_frac (s : Ilp.Stats.t) =
  let races = s.Ilp.Stats.wins_exact + s.Ilp.Stats.wins_heuristic in
  if races = 0 then 0. else float_of_int s.Ilp.Stats.wins_exact /. float_of_int races

(** Per-layer metrics of [ops] traced ops with [results]: times are means
    per op, counts are totals. *)
let layer_metrics sp ~ops results =
  let n = float_of_int (max 1 ops) in
  let st = stats_sum results in
  let per_op s = ms s /. n in
  let self l = Spans.self sp l and total l = Spans.total sp l in
  let core = total "core" in
  let ilp_s = st.Ilp.Stats.solve_time_s and heur_s = st.Ilp.Stats.heur_time_s in
  let op_s = total "op" in
  let covered =
    self "minic" +. self "interp" +. self "htg" +. self "core" +. self "implement"
  in
  let solves = st.Ilp.Stats.ilps + st.Ilp.Stats.heuristic_solves in
  let hits = st.Ilp.Stats.cache_hits in
  let cnt name v = (name, float_of_int v, "count") in
  [
    ("minic.ms", per_op (self "minic"), "ms");
    ("interp.ms", per_op (self "interp"), "ms");
    cnt "interp.steps" (List.fold_left (fun a (_, r) -> a + r.steps) 0 results);
    ("htg.ms", per_op (self "htg"), "ms");
    cnt "htg.nodes" (List.fold_left (fun a (_, r) -> a + r.nodes) 0 results);
    ("core.ms", per_op core, "ms");
    ("core.self_ms", per_op (core -. ilp_s -. heur_s), "ms");
    cnt "ilp.solves" st.Ilp.Stats.ilps;
    cnt "ilp.vars" st.Ilp.Stats.vars;
    cnt "ilp.constrs" st.Ilp.Stats.constrs;
    cnt "ilp.pivots" st.Ilp.Stats.pivots;
    cnt "ilp.bb_nodes" st.Ilp.Stats.bb_nodes;
    cnt "ilp.cuts" st.Ilp.Stats.cuts;
    cnt "ilp.presolve_rows" st.Ilp.Stats.presolve_rows;
    ("ilp.solve_ms", per_op ilp_s, "ms");
    cnt "ilp.limited" (limited st);
    cnt "heuristics.solves" st.Ilp.Stats.heuristic_solves;
    ("heuristics.ms", per_op heur_s, "ms");
    ("heuristics.exact_win_frac", exact_win_frac st, "ratio");
    cnt "memo.hits" hits;
    ( "memo.hit_frac",
      (if solves + hits = 0 then 0.
       else float_of_int hits /. float_of_int (solves + hits)),
      "ratio" );
    ("implement.ms", per_op (self "implement"), "ms");
    ("trace.op_ms", per_op op_s, "ms");
    ("trace.coverage", (if op_s > 0. then covered /. op_s else 0.), "ratio");
    cnt "trace.ops" ops;
  ]

type run_result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  detail : (string * Util.json) list;
}

let failures b = Util.List (List.map (fun s -> Util.Str s) b.failures)

let run_workload ~seconds ~trace (w : workload) : run_result =
  let cal = Util.calibrator () in
  Fun.protect ~finally:(fun () -> Util.stop_calibrator cal) @@ fun () ->
  let raw_setup_s, setup_s, next_round = timed_setup cal w in
  let b = book () in
  let op = run_op w.cfg in
  let detail_common p =
    [
      ("ops", Util.Int p.ops);
      ("busy_s", Util.Num p.busy_s);
      ( "repeat_share",
        Util.Num (if p.ops = 0 then 0. else float_of_int p.repeats /. float_of_int p.ops) );
      ("digests_md5", Util.Str (Util.digests_md5 b.digests));
    ]
  in
  if not trace then begin
    let blocks = max 1 (int_of_float (Float.ceil (seconds /. w.block_s))) in
    let stopwatch = Util.stopwatch cal ~share:0.05 in
    let p = closed_loop ~stopwatch ~blocks ~op b w next_round in
    (* before the checks below, which are not the workload's memory *)
    let rss = Util.peak_rss_mb "self" in
    (* same input, same answer: re-run the run's first input untimed *)
    (match b.first with
    | Some i when w.recheck -> ignore (check b i (op i))
    | _ -> ());
    validate_all b;
    (* wall times as they would read on the reference host *)
    let times setup_s busy_s op_ms =
      [
        ("setup_s", setup_s, "s");
        ("programs_per_s", (if busy_s > 0. then float_of_int p.ops /. busy_s else 0.), "1/s");
        ("op_p50_ms", Util.median op_ms, "ms");
        ("op_p90_ms", Util.quantile 0.9 op_ms, "ms");
      ]
    in
    let raw = times raw_setup_s p.busy_s p.op_ms in
    let metrics =
      times setup_s p.scaled_busy_s p.scaled_op_ms
      @ [
          ("speedup_geomean", distinct_geomean p.speedups, "x");
          ( "ok_frac",
            1. -. (float_of_int b.failed /. float_of_int (max 1 b.attempted)),
            "ratio" );
          ("peak_rss_mb", rss, "MB");
        ]
    in
    {
      correct = b.failed = 0;
      attempted = b.attempted;
      failed = b.failed;
      metrics;
      detail =
        detail_common p
        @ [
            ("blocks", Util.Int blocks);
            ("host_speed_setup", Util.Num (setup_s /. raw_setup_s));
            ("host_speed_ops", Util.Num (p.scaled_busy_s /. p.busy_s));
            ("raw", Util.Obj (List.map (fun (n, v, _) -> (n, Util.Num v)) raw));
            ("validated_kernels", Util.Int (Hashtbl.length b.validated));
            ("failures", failures b);
          ];
    }
  end
  else begin
    (* the fixed first block; each input runs untraced, then traced
       straight after, so the overhead is a paired comparison and the
       two digests are checked against each other *)
    let plain_s = ref 0. in
    let sp = Spans.create () in
    let paired i =
      let t0 = Util.now () in
      let r = op i in
      plain_s := !plain_s +. (Util.now () -. t0);
      ignore (check b i r);
      traced_op sp w.cfg i
    in
    let traced = closed_loop ~fixed:true ~blocks:1 ~op:paired b w next_round in
    validate_all b;
    let rate busy = if busy > 0. then float_of_int traced.ops /. busy else 0. in
    let tp = rate !plain_s and tt = rate (Spans.total sp "op") in
    let metrics =
      layer_metrics sp ~ops:traced.ops traced.results
      @ [
          ("trace.overhead_frac", (if tp > 0. then (tp -. tt) /. tp else 0.), "ratio");
        ]
    in
    {
      correct = b.failed = 0;
      attempted = b.attempted;
      failed = b.failed;
      metrics;
      detail =
        detail_common traced
        @ [
            ( "layer_self_ms_mean",
              Util.Obj
                (List.map
                   (fun (l, _, self) -> (l, Util.Num (ms self /. float_of_int (max 1 traced.ops))))
                   (Spans.layer_times sp)) );
            ("untraced_programs_per_s", Util.Num tp);
            ("traced_programs_per_s", Util.Num tt);
            ("validated_kernels", Util.Int (Hashtbl.length b.validated));
            ("failures", failures b);
          ];
    }
  end
