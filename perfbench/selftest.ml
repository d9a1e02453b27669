(** Determinism self-test of the benchmark, on a reduced configuration:
    small inputs, few ops, a short serve session.

    - Two runs with the same seed give identical per-input digests and
      identical interp.steps, htg.nodes, ilp.solves, ilp.pivots,
      ilp.bb_nodes, heuristics.solves and memo.hits.
    - The traced op gives the digest of the untraced op on each input.
    - A different seed changes the inputs.

    usage: selftest.exe SERVE_EXE *)

open Parcore

let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end
  else Printf.printf "ok   %s\n%!" what

(** Per-input digests and the run's counters, from [op] over [inputs]. *)
let counters op inputs =
  let st = Ilp.Stats.create () in
  let steps = ref 0 and nodes = ref 0 in
  let digests =
    List.map
      (fun (i : Inproc.input) ->
        match op i with
        | Ok (r : Inproc.result) ->
            Ilp.Stats.merge ~into:st r.Inproc.stats;
            steps := !steps + r.Inproc.steps;
            nodes := !nodes + r.Inproc.nodes;
            (i.Inproc.name, r.Inproc.digest)
        | Error e -> (i.Inproc.name, "error: " ^ e))
      inputs
  in
  ( digests,
    [
      ("interp.steps", !steps);
      ("htg.nodes", !nodes);
      ("ilp.solves", st.Ilp.Stats.ilps);
      ("ilp.pivots", st.Ilp.Stats.pivots);
      ("ilp.bb_nodes", st.Ilp.Stats.bb_nodes);
      ("heuristics.solves", st.Ilp.Stats.heuristic_solves);
      ("memo.hits", st.Ilp.Stats.cache_hits);
    ] )

let small_cfg solver =
  {
    Inproc.exact_cfg with
    Config.solver;
    ilp_work_limit = 5e5;
    ilp_node_limit = 200;
    portfolio_work_limit = 5e5;
  }

(** A reduced stand-in of each in-process workload: a few small size
    variants on generated platforms (heuristic engine) and on platform A
    (portfolio and exact engines), traced and untraced. *)
let inputs ~seed =
  let v = Gen.variants ~seed ~stream:2 ~centre:0.05 ~spread:0.02 in
  let round = Gen.next_round v in
  let pick =
    List.filter
      (fun (x : Gen.variant) -> List.mem x.Gen.kernel [ "fir_256"; "mult_10"; "iir_4" ])
      round
  in
  let next_platform = Gen.platforms ~seed ~stream:1 in
  let gen_platforms = List.init 2 (fun _ -> Gen.parse_platform (next_platform ())) in
  let pa = Inproc.preset Inproc.platform_a in
  let input platform (x : Gen.variant) =
    {
      Inproc.name = x.Gen.name ^ "/" ^ platform.Platform.Desc.name;
      kernel = x.Gen.kernel;
      platform;
      source = x.Gen.source;
      len = x.Gen.len;
      prepared = None;
    }
  in
  ( List.concat_map (fun p -> List.map (input p) pick) gen_platforms,
    List.map (input pa) pick )

let in_process () =
  let run seed =
    let on_generated, on_a = inputs ~seed in
    List.concat_map
      (fun (solver, inputs) ->
        let cfg = small_cfg solver in
        let d1, c1 = counters (Inproc.run_op cfg) inputs in
        let d2, c2 =
          counters (Inproc.traced_op (Spans.create ()) cfg) inputs
        in
        expect "traced op digests equal untraced" (d1 = d2);
        [ (d1, c1, c2) ])
      [
        (Config.Heuristic, on_generated);
        (Config.Portfolio, on_a);
        (Config.Ilp, [ List.hd on_generated ]);
      ]
  in
  let a = run 7 and b = run 7 in
  List.iter2
    (fun (d1, _, c1) (d2, _, c2) ->
      expect "same seed, same digests" (d1 = d2);
      List.iter2
        (fun (k, v1) (_, v2) ->
          expect (Printf.sprintf "same seed, same %s (%d)" k v1) (v1 = v2))
        c1 c2)
    a b;
  let names seed =
    let g, p = inputs ~seed in
    List.map
      (fun (i : Inproc.input) ->
        (i.Inproc.name, i.Inproc.source, Platform.Parse.to_string i.Inproc.platform))
      (g @ p)
  in
  expect "different seed, different inputs" (names 7 <> names 8);
  (* a new length equal to another literal of its kernel is rewritten once *)
  List.iter
    (fun (k, len) ->
      let x = Gen.variant k ~len in
      expect (x.Gen.name ^ " profiles")
        (match Interp.Eval.run (Minic.Frontend.compile x.Gen.source) with
        | _ -> true
        | exception _ -> false))
    [ ("edge_detect", 257); ("boundary_value", 4095) ];
  let plan seed = Serve_run.make_plan ~seed ~n:Serve_run.min_requests in
  expect "different seed, different serve schedule"
    ((plan 7).Serve_run.schedule <> (plan 8).Serve_run.schedule)

(** A short serve session, twice on fresh daemons: per-request digests,
    solve counts and memo hits must repeat. *)
let serve exe =
  let plan = Serve_run.make_plan ~seed:7 ~n:Serve_run.min_requests in
  let repeat_set = List.filteri (fun i _ -> i < 2) plan.Serve_run.repeat_set in
  let fresh =
    Array.to_list plan.Serve_run.schedule
    |> List.filter_map (fun (_, x, repeat) -> if repeat then None else Some x)
    |> List.filteri (fun i _ -> i < 2)
  in
  let small =
    {
      Serve_run.repeat_set;
      schedule =
        Array.of_list
          (List.mapi
             (fun i (x, repeat) -> (0.05 *. float_of_int i, x, repeat))
             (List.map (fun x -> (x, true)) repeat_set
             @ List.map (fun x -> (x, false)) fresh));
    }
  in
  let once idx =
    let dir = Printf.sprintf ".perfbench-selftest-%d" (Unix.getpid ()) in
    Serve_run.mkdir_p (Filename.concat dir "src");
    Fun.protect
      ~finally:(fun () -> Serve_run.rm_rf dir)
      (fun () ->
        Serve_run.write_sources (Filename.concat dir "src") small;
        let d = Serve_run.spawn ~exe ~dir ~idx in
        Fun.protect
          ~finally:(fun () -> Serve_run.stop d)
          (fun () ->
            ignore (Serve_run.answer_repeat_set d (Filename.concat dir "src") small);
            let s = Serve_run.session d (Filename.concat dir "src") small ~grace:60. in
            Array.to_list s.Serve_run.answers
            |> List.map (function
                 | Some a ->
                     ( Serve_run.str "digest" a.Serve_run.resp,
                       Serve_run.num "ilps" a.Serve_run.resp,
                       Serve_run.num "memo_hits" a.Serve_run.resp )
                 | None -> (None, nan, nan))))
  in
  let a = once 1 and b = once 2 in
  expect "serve answered every request" (List.for_all (fun (d, _, _) -> d <> None) a);
  expect "serve: same seed, same digests, ilp.solves and memo.hits" (a = b);
  expect "serve: repeats solve no ILP"
    (List.for_all (fun (_, ilps, _) -> ilps = 0.) (List.filteri (fun i _ -> i < 2) a))

let () =
  in_process ();
  (match Sys.argv with [| _; exe |] -> serve exe | _ -> print_endline "skip serve (no SERVE_EXE)");
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
