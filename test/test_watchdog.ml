(* Tests for the runtime watchdog: wall-clock timeouts, deadlock verdicts
   over parked receives, progress heartbeats deferring the verdict,
   cooperative interpreter cancellation, and the end-to-end contract that
   a parked receive returns [Error `Expired] instead of hanging. *)

let rec wait_for ?(deadline_s = 5.) t pred =
  if pred (Runtime.Watchdog.verdict t) then Runtime.Watchdog.verdict t
  else if deadline_s <= 0. then Runtime.Watchdog.verdict t
  else begin
    Unix.sleepf 0.02;
    wait_for ~deadline_s:(deadline_s -. 0.02) t pred
  end

let test_timeout_verdict () =
  let t = Runtime.Watchdog.create ~grace_s:0. ~timeout_s:0.05 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Watchdog.stop t)
    (fun () ->
      let v = wait_for t (fun v -> v <> Runtime.Watchdog.Running) in
      Alcotest.(check bool) "timed out" true (v = Runtime.Watchdog.Timed_out);
      Alcotest.(check bool) "cancel set" true
        (Atomic.get (Runtime.Watchdog.cancel_token t)))

let test_deadlock_verdict_expires_waiters () =
  let t = Runtime.Watchdog.create ~grace_s:0.1 ~timeout_s:30. () in
  let expired = Atomic.make false in
  Fun.protect
    ~finally:(fun () -> Runtime.Watchdog.stop t)
    (fun () ->
      let _ticket =
        Runtime.Watchdog.register t ~label:"task1:x<-child0" ~expire:(fun () ->
            Atomic.set expired true)
      in
      let v = wait_for t (fun v -> v <> Runtime.Watchdog.Running) in
      (match v with
      | Runtime.Watchdog.Deadlocked labels ->
          Alcotest.(check (list string)) "waiting tasks" [ "task1:x<-child0" ] labels
      | _ -> Alcotest.fail "expected a deadlock verdict");
      Alcotest.(check bool) "waiter expired" true (Atomic.get expired))

let test_heartbeat_defers_deadlock () =
  let t = Runtime.Watchdog.create ~grace_s:0.15 ~timeout_s:30. () in
  Fun.protect
    ~finally:(fun () -> Runtime.Watchdog.stop t)
    (fun () ->
      let ticket = Runtime.Watchdog.register t ~label:"parked" ~expire:ignore in
      (* keep pulsing for ~0.4 s: well past the grace window, but progress
         is visible, so no verdict may fire *)
      for _ = 1 to 8 do
        Unix.sleepf 0.05;
        Runtime.Watchdog.beat t
      done;
      Alcotest.(check bool) "still running" true
        (Runtime.Watchdog.verdict t = Runtime.Watchdog.Running);
      Runtime.Watchdog.unregister t ticket;
      (* with no parked receive left, silence is idleness, not deadlock *)
      Unix.sleepf 0.3;
      Alcotest.(check bool) "idle is not deadlock" true
        (Runtime.Watchdog.verdict t = Runtime.Watchdog.Running))

let test_late_register_expires_immediately () =
  let t = Runtime.Watchdog.create ~grace_s:0. ~timeout_s:0.02 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Watchdog.stop t)
    (fun () ->
      ignore (wait_for t (fun v -> v <> Runtime.Watchdog.Running));
      let expired = ref false in
      ignore
        (Runtime.Watchdog.register t ~label:"late" ~expire:(fun () ->
             expired := true));
      Alcotest.(check bool) "expired on the spot" true !expired)

let test_eval_cancellation () =
  let supervision =
    { Interp.Eval.cancel = Atomic.make true; pulse = Atomic.make 0 }
  in
  let prog =
    Minic.Frontend.compile
      "int main() { int i; i = 0; while (i < 100000000) { i = i + 1; } return \
       i; }"
  in
  let main = Option.get (Minic.Ast.find_func prog "main") in
  let code =
    Interp.Eval.compile ~globals:prog.Minic.Ast.globals main.Minic.Ast.fbody
  in
  let env =
    Interp.Eval.make_env ~supervision
      ~max_steps:1_000_000_000
      ~profile:(Interp.Profile.create (Interp.Eval.profile_slots prog))
      (Interp.Eval.new_store code)
  in
  match Interp.Eval.exec_stmts env main.Minic.Ast.fbody with
  | () -> Alcotest.fail "expected cancellation"
  | exception Interp.Eval.Cancelled -> ()
  | exception Interp.Eval.Return_exn _ -> Alcotest.fail "ran to completion"

(* End-to-end: a receive on a channel nobody writes returns
   [Error `Expired] under a watchdog verdict instead of hanging. *)
let test_parked_recv_expires () =
  let pool = Runtime.Pool.create ~domains:2 () in
  let t = Runtime.Watchdog.create ~grace_s:0.1 ~timeout_s:30. () in
  Fun.protect
    ~finally:(fun () ->
      Runtime.Watchdog.stop t;
      Runtime.Pool.shutdown pool)
    (fun () ->
      let c = Runtime.Channel.create () in
      let r =
        Runtime.Pool.run pool (fun () ->
            Runtime.Channel.recv ~watch:t ~label:"orphan" pool c)
      in
      Alcotest.(check bool) "recv expired" true (r = Error `Expired);
      match Runtime.Watchdog.verdict t with
      | Runtime.Watchdog.Deadlocked [ "orphan" ] -> ()
      | _ -> Alcotest.fail "expected deadlock verdict naming the receive")

(* End-to-end through the execution runtime: a program whose execution
   exceeds the wall deadline comes back as a typed Timeout (exit code 4),
   not a hang. *)
let test_exec_timeout_typed () =
  let src =
    "int main() { int i; int s; s = 0; i = 0; while (i < 200000000) { s = s + \
     i; i = i + 1; } return s; }"
  in
  let prog = Minic.Frontend.compile src in
  (* profiling would run the whole loop; build the solution from a stub
     profile instead — execution semantics do not depend on it *)
  let profile = Interp.Profile.create (Interp.Eval.profile_slots prog) in
  let htg = Htg.Build.build prog profile in
  let sol =
    {
      Parcore.Solution.node_id = htg.Htg.Node.id;
      main_class = 0;
      time_us = 0.;
      extra_units = [| 0 |];
      kind = Parcore.Solution.Seq [||];
      degrade = Parcore.Solution.Exact;
    }
  in
  match
    Runtime.Exec.run_result ~domains:2 ~max_steps:1_000_000_000 ~timeout_s:0.1
      prog htg sol
  with
  | Ok _ -> Alcotest.fail "expected a timeout"
  | Error e ->
      Alcotest.(check bool) "kind is timeout" true
        (e.Mpsoc_error.kind = Mpsoc_error.Timeout);
      Alcotest.(check int) "exit code 4" 4 (Mpsoc_error.exit_code e)

let suite =
  [
    Alcotest.test_case "wall-clock timeout verdict" `Quick test_timeout_verdict;
    Alcotest.test_case "deadlock verdict expires waiters" `Quick
      test_deadlock_verdict_expires_waiters;
    Alcotest.test_case "heartbeat defers the verdict" `Quick
      test_heartbeat_defers_deadlock;
    Alcotest.test_case "late register expires immediately" `Quick
      test_late_register_expires_immediately;
    Alcotest.test_case "interpreter cancels cooperatively" `Quick
      test_eval_cancellation;
    Alcotest.test_case "parked receive expires instead of hanging" `Quick
      test_parked_recv_expires;
    Alcotest.test_case "execution timeout is a typed error" `Quick
      test_exec_timeout_typed;
  ]
