(* Tests for the multicore execution runtime: deque order, pool fork/join
   and suspension, channels, differential validation of parallel
   execution against the sequential interpreter, and determinism across
   domain counts. *)

let cfg = Parcore.Config.fast

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)
(* ------------------------------------------------------------------ *)

let test_deque_lifo_fifo () =
  let q = Runtime.Deque.create () in
  Alcotest.(check (option int)) "empty pop" None (Runtime.Deque.pop q);
  Alcotest.(check (option int)) "empty steal" None (Runtime.Deque.steal q);
  List.iter (Runtime.Deque.push q) [ 1; 2; 3 ];
  (* owner pops newest first *)
  Alcotest.(check (option int)) "pop newest" (Some 3) (Runtime.Deque.pop q);
  (* thief steals oldest *)
  Alcotest.(check (option int)) "steal oldest" (Some 1) (Runtime.Deque.steal q);
  Alcotest.(check int) "one left" 1 (Runtime.Deque.size q);
  Alcotest.(check (option int)) "last" (Some 2) (Runtime.Deque.pop q);
  Alcotest.(check (option int)) "drained" None (Runtime.Deque.steal q)

let test_deque_grows () =
  let q = Runtime.Deque.create () in
  for i = 0 to 999 do
    Runtime.Deque.push q i
  done;
  Alcotest.(check int) "size" 1000 (Runtime.Deque.size q);
  (* steal end sees insertion order *)
  for i = 0 to 999 do
    Alcotest.(check (option int)) "fifo" (Some i) (Runtime.Deque.steal q)
  done

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let with_pool domains f =
  let pool = Runtime.Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) (fun () -> f pool)

let test_pool_fork_join domains () =
  with_pool domains (fun pool ->
      let total =
        Runtime.Pool.run pool (fun () ->
            let futs =
              List.init 50 (fun i -> Runtime.Pool.spawn pool (fun () -> i * i))
            in
            List.fold_left
              (fun acc f ->
                match Runtime.Pool.await pool f with
                | Ok v -> acc + v
                | Error e -> raise e)
              0 futs)
      in
      Alcotest.(check int) "sum of squares" 40425 total)

let test_pool_nested () =
  with_pool 4 (fun pool ->
      let v =
        Runtime.Pool.run pool (fun () ->
            let inner =
              List.init 8 (fun i ->
                  Runtime.Pool.spawn pool (fun () ->
                      let fs =
                        List.init 4 (fun j -> Runtime.Pool.spawn pool (fun () -> i + j))
                      in
                      List.fold_left
                        (fun acc f ->
                          match Runtime.Pool.await pool f with
                          | Ok v -> acc + v
                          | Error e -> raise e)
                        0 fs))
            in
            List.fold_left
              (fun acc f ->
                match Runtime.Pool.await pool f with
                | Ok v -> acc + v
                | Error e -> raise e)
              0 inner)
      in
      (* sum over i of (4i + 6) = 4*28 + 48 *)
      Alcotest.(check int) "nested sum" 160 v)

exception Boom

let test_pool_exception () =
  with_pool 2 (fun pool ->
      let r =
        Runtime.Pool.run pool (fun () ->
            let f = Runtime.Pool.spawn pool (fun () -> raise Boom) in
            Runtime.Pool.await pool f)
      in
      Alcotest.(check bool) "error captured" true (r = Error Boom))

(* ------------------------------------------------------------------ *)
(* Channel                                                             *)
(* ------------------------------------------------------------------ *)

let test_channel_send_recv () =
  with_pool 2 (fun pool ->
      let c = Runtime.Channel.create () in
      let v =
        Runtime.Pool.run pool (fun () ->
            let _ =
              Runtime.Pool.spawn pool (fun () ->
                  Runtime.Channel.send pool c (Some (Interp.Value.VInt 42)))
            in
            (* recv suspends until the producer task runs *)
            Runtime.Channel.recv pool c)
      in
      Alcotest.(check bool)
        "value arrives" true
        (v = Ok (Some (Interp.Value.VInt 42))))

let test_channel_write_once () =
  with_pool 1 (fun pool ->
      let c = Runtime.Channel.create () in
      Runtime.Channel.send pool c (Some (Interp.Value.VInt 1));
      Runtime.Channel.send pool c (Some (Interp.Value.VInt 2));
      Runtime.Channel.poison pool c;
      let v = Runtime.Pool.run pool (fun () -> Runtime.Channel.recv pool c) in
      Alcotest.(check bool)
        "first write wins" true
        (v = Ok (Some (Interp.Value.VInt 1))))

(* ------------------------------------------------------------------ *)
(* Differential validation                                             *)
(* ------------------------------------------------------------------ *)

let solve_bench b platform =
  let prog = Benchsuite.Suite.compile b in
  let out =
    Parcore.Parallelize.run_program ~cfg ~approach:Parcore.Parallelize.Heterogeneous
      ~platform prog
  in
  (prog, out.Parcore.Parallelize.htg, out.Parcore.Parallelize.algo.Parcore.Algorithm.root)

let test_validate_bench name platform () =
  match Benchsuite.Suite.find name with
  | None -> Alcotest.fail ("unknown benchmark " ^ name)
  | Some b ->
      let prog, htg, sol = solve_bench b platform in
      let par, seq, ok = Runtime.Exec.validate ~domains:4 prog htg sol in
      if not ok then
        Alcotest.failf "parallel result diverges (par %s, seq %s)"
          (match par.Runtime.Exec.ret with
          | Some v -> Fmt.str "%a" Interp.Value.pp v
          | None -> "none")
          (match seq.Interp.Eval.ret with
          | Some v -> Fmt.str "%a" Interp.Value.pp v
          | None -> "none");
      Alcotest.(check bool) "steps in same order of magnitude" true
        (par.Runtime.Exec.steps > 0)

(* Determinism: the same program must compute the same result no matter
   how many domains execute it or how the scheduler interleaves. *)
let test_determinism () =
  match Benchsuite.Suite.find "fir_256" with
  | None -> Alcotest.fail "fir_256 missing"
  | Some b ->
      let prog, htg, sol = solve_bench b Platform.Presets.platform_a_accel in
      let reference = (Interp.Eval.run prog).Interp.Eval.ret in
      List.iter
        (fun domains ->
          for run = 1 to 10 do
            let r = Runtime.Exec.run ~domains prog htg sol in
            if not (Runtime.Exec.ret_equal r.Runtime.Exec.ret reference) then
              Alcotest.failf "run %d with %d domains diverged" run domains
          done)
        [ 1; 2; 8 ]

let test_metrics_reported () =
  match Benchsuite.Suite.find "mult_10" with
  | None -> Alcotest.fail "mult_10 missing"
  | Some b ->
      let prog, htg, sol = solve_bench b Platform.Presets.platform_a_accel in
      let r = Runtime.Exec.run ~domains:4 prog htg sol in
      let m = r.Runtime.Exec.metrics in
      Alcotest.(check int) "domains" 4 m.Runtime.Metrics.domains;
      Alcotest.(check bool) "wall clock measured" true (m.Runtime.Metrics.wall_s > 0.);
      Alcotest.(check bool) "steps counted" true (m.Runtime.Metrics.n_steps > 0);
      Alcotest.(check int) "per-worker busy" 4
        (Array.length m.Runtime.Metrics.worker_busy_s);
      Alcotest.(check int) "per-worker tasks" 4
        (Array.length m.Runtime.Metrics.worker_tasks);
      (* something actually ran in parallel *)
      Alcotest.(check bool) "tasks spawned" true (m.Runtime.Metrics.n_tasks_spawned > 0)

(* An inner declaration must not clobber the outer variable of the same
   name, in the runtime's task stores as in the interpreter. *)
let test_validate_shadowing () =
  let prog =
    Minic.Frontend.compile
      {|float a[64]; float b[64];
int main() {
  int i; int k; int r;
  k = 5;
  for (i = 0; i < 64; i = i + 1) { a[i] = i * 0.5; }
  for (i = 0; i < 64; i = i + 1) { int k; k = i * 2; b[i] = k + 1.0; }
  { int k; k = 0; r = a[3] + b[7]; }
  r = k * 1000 + r;
  return r;
}|}
  in
  let out =
    Parcore.Parallelize.run_program ~cfg ~approach:Parcore.Parallelize.Heterogeneous
      ~platform:Platform.Presets.platform_a_accel prog
  in
  let par, seq, ok =
    Runtime.Exec.validate ~domains:2 prog out.Parcore.Parallelize.htg
      out.Parcore.Parallelize.algo.Parcore.Algorithm.root
  in
  Alcotest.(check bool) "runtime agrees with the interpreter" true ok;
  Alcotest.(check bool) "sequential result" true (seq.Interp.Eval.ret = Some (Interp.Value.VInt 5016));
  Alcotest.(check bool) "parallel result" true (par.Runtime.Exec.ret = Some (Interp.Value.VInt 5016))

let suite =
  [
    Alcotest.test_case "deque lifo/fifo" `Quick test_deque_lifo_fifo;
    Alcotest.test_case "deque grows" `Quick test_deque_grows;
    Alcotest.test_case "pool fork/join (1 domain)" `Quick (test_pool_fork_join 1);
    Alcotest.test_case "pool fork/join (4 domains)" `Quick (test_pool_fork_join 4);
    Alcotest.test_case "pool nested spawns" `Quick test_pool_nested;
    Alcotest.test_case "pool exception" `Quick test_pool_exception;
    Alcotest.test_case "channel send/recv" `Quick test_channel_send_recv;
    Alcotest.test_case "channel write-once" `Quick test_channel_write_once;
    Alcotest.test_case "validate fir_256 (A)" `Slow
      (test_validate_bench "fir_256" Platform.Presets.platform_a_accel);
    Alcotest.test_case "validate mult_10 (A)" `Slow
      (test_validate_bench "mult_10" Platform.Presets.platform_a_accel);
    Alcotest.test_case "validate boundary_value (B)" `Slow
      (test_validate_bench "boundary_value" Platform.Presets.platform_b_accel);
    Alcotest.test_case "validate spectral (B)" `Slow
      (test_validate_bench "spectral" Platform.Presets.platform_b_accel);
    Alcotest.test_case "determinism across domains" `Slow test_determinism;
    Alcotest.test_case "metrics reported" `Slow test_metrics_reported;
    Alcotest.test_case "validate shadowing" `Quick test_validate_shadowing;
  ]
