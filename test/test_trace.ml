(** Tracing layer tests: golden traced-pipeline Chrome-JSON validity
    (balanced B/E, per-domain monotonic timestamps, parseable export)
    and the disabled-recorder fast path (no per-call allocation). *)

let src =
  {|
int acc[4];
int work(int seed) {
  int i;
  int s = seed;
  for (i = 0; i < 2000; i = i + 1) { s = (s * 31 + i) % 65536; }
  return s;
}
int main() {
  acc[0] = work(1);
  acc[1] = work(2);
  acc[2] = work(3);
  return acc[0] + acc[1] + acc[2];
}
|}

let traced_run () =
  Trace.with_tracing (fun () ->
      Parcore.Parallelize.run
        ~cfg:{ Parcore.Config.fast with Parcore.Config.jobs = 2 }
        ~approach:Parcore.Parallelize.Heterogeneous
        ~platform:Platform.Presets.platform_a_accel src)

(* ---- recorder invariants on a real pipeline run -------------------- *)

let test_balanced_and_monotonic () =
  let _out, c = traced_run () in
  Alcotest.(check bool) "captured events" true (c.Trace.events <> []);
  (* per-domain: timestamps monotonic, B/E properly nested by name *)
  List.iter
    (fun dom ->
      let evs =
        List.filter (fun (e : Trace.event) -> e.Trace.dom = dom) c.Trace.events
      in
      let last = ref neg_infinity in
      let stack = ref [] in
      List.iter
        (fun (e : Trace.event) ->
          Alcotest.(check bool)
            (Printf.sprintf "monotonic ts on domain %d" dom)
            true
            (e.Trace.ts_us >= !last);
          last := e.Trace.ts_us;
          match e.Trace.ph with
          | Trace.B -> stack := e.Trace.name :: !stack
          | Trace.E -> (
              match !stack with
              | top :: rest ->
                  Alcotest.(check string)
                    (Printf.sprintf "E matches B on domain %d" dom)
                    top e.Trace.name;
                  stack := rest
              | [] -> Alcotest.fail "E without matching B")
          | _ -> ())
        evs;
      Alcotest.(check (list string))
        (Printf.sprintf "balanced spans on domain %d" dom)
        [] !stack)
    c.Trace.domains;
  (* the pipeline phases were captured as top-level spans *)
  let phases = List.map fst (Trace.span_totals ~cat:"phase" c.Trace.events) in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " phase present") true (List.mem p phases))
    [ "frontend"; "profile"; "htg"; "parallelize"; "implement" ]

let test_solver_events_present () =
  let out, c = traced_run () in
  let ilp_x =
    List.filter
      (fun (e : Trace.event) -> e.Trace.cat = "ilp" && e.Trace.ph = Trace.X)
      c.Trace.events
  in
  let stats = out.Parcore.Parallelize.algo.Parcore.Algorithm.stats in
  (* every solve (exact, heuristic or cache-answered) leaves one X
     event; every engine takes a heuristic point per subproblem *)
  Alcotest.(check int) "one X event per solve"
    (stats.Ilp.Stats.ilps + stats.Ilp.Stats.heuristic_solves
   + stats.Ilp.Stats.cache_hits)
    (List.length ilp_x)

(* ---- Chrome export ------------------------------------------------- *)

let test_chrome_json_valid () =
  let _out, c = traced_run () in
  let doc = Trace_chrome.document c in
  let json = Trace_json.parse (Trace_json.to_string doc) in
  let get what = function
    | Some v -> v
    | None -> Alcotest.fail ("missing " ^ what)
  in
  let evs =
    get "traceEvents"
      (Option.bind (Trace_json.member "traceEvents" json) Trace_json.to_list)
  in
  Alcotest.(check bool) "has events" true (evs <> []);
  List.iter
    (fun e ->
      let field name = get name (Trace_json.member name e) in
      let ph = get "ph string" (Trace_json.to_str (field "ph")) in
      Alcotest.(check bool) "known phase" true
        (List.mem ph [ "B"; "E"; "i"; "C"; "X"; "M" ]);
      ignore (get "pid" (Trace_json.to_num (field "pid")));
      ignore (get "tid" (Trace_json.to_num (field "tid")));
      if ph <> "M" then ignore (get "ts" (Trace_json.to_num (field "ts"))))
    evs;
  (* one thread_name metadata record per recording domain *)
  let thread_names =
    List.filter
      (fun e ->
        match Trace_json.member "name" e with
        | Some (Trace_json.Str "thread_name") -> true
        | _ -> false)
      evs
  in
  Alcotest.(check int) "one track per domain"
    (List.length c.Trace.domains)
    (List.length thread_names)

(* ---- ring overwrite ------------------------------------------------ *)

let test_ring_overflow_reported () =
  Trace.start ~capacity:16 ();
  for i = 0 to 99 do
    Trace.instant ~cat:"t" (string_of_int i)
  done;
  match Trace.stop () with
  | None -> Alcotest.fail "recorder was armed"
  | Some c ->
      Alcotest.(check int) "ring keeps capacity" 16 (List.length c.Trace.events);
      Alcotest.(check int) "dropped reported" 84 c.Trace.dropped;
      (* oldest events were the ones overwritten *)
      (match c.Trace.events with
      | e :: _ -> Alcotest.(check string) "oldest kept" "84" e.Trace.name
      | [] -> Alcotest.fail "empty collection")

let test_metrics_reports_dropped () =
  Trace.start ~capacity:16 ();
  for i = 0 to 99 do
    Trace.instant ~cat:"t" (string_of_int i)
  done;
  match Trace.stop () with
  | None -> Alcotest.fail "recorder was armed"
  | Some c -> (
      let doc =
        Observe.metrics_doc ~generated_by:"test" ~trace:c ~wall_s:0.1
          (Ilp.Stats.create ())
      in
      match
        Option.bind (Trace_json.member "trace" doc)
          (Trace_json.member "dropped_spans")
      with
      | Some (Trace_json.Num n) ->
          Alcotest.(check int) "dropped_spans in metrics" 84 (int_of_float n)
      | _ -> Alcotest.fail "metrics doc has no trace.dropped_spans")

(* ---- request tags --------------------------------------------------- *)

let req_arg (e : Trace.event) =
  match List.assoc_opt "req" e.Trace.args with
  | Some (Trace.Str t) -> Some t
  | _ -> None

let test_tag_attached_and_restored () =
  Alcotest.(check (option string)) "no tag by default" None (Trace.current_tag ());
  let _, c =
    Trace.with_tracing (fun () ->
        Trace.instant ~cat:"t" "before";
        Trace.with_tag "r1" (fun () ->
            Trace.instant ~cat:"t" "tagged";
            Trace.with_tag "r2" (fun () -> Trace.instant ~cat:"t" "nested");
            Trace.instant ~cat:"t" "tagged-again");
        Trace.instant ~cat:"t" "after")
  in
  Alcotest.(check (option string)) "tag restored" None (Trace.current_tag ());
  let tag_of name =
    match
      List.find_opt (fun (e : Trace.event) -> e.Trace.name = name) c.Trace.events
    with
    | Some e -> req_arg e
    | None -> Alcotest.fail ("missing event " ^ name)
  in
  Alcotest.(check (option string)) "untagged before" None (tag_of "before");
  Alcotest.(check (option string)) "tagged" (Some "r1") (tag_of "tagged");
  Alcotest.(check (option string)) "nested tag wins" (Some "r2") (tag_of "nested");
  Alcotest.(check (option string))
    "outer tag restored" (Some "r1") (tag_of "tagged-again");
  Alcotest.(check (option string)) "untagged after" None (tag_of "after")

let test_tag_crosses_taskpool () =
  (* the pool captures the spawner's tag and restores it on whichever
     worker domain runs (or resumes) the task *)
  let pool = Taskpool.Pool.create ~domains:2 () in
  let _, c =
    Trace.with_tracing (fun () ->
        Taskpool.Pool.run pool (fun () ->
            Trace.with_tag "job-7" (fun () ->
                let ts =
                  List.init 8 (fun i ->
                      Taskpool.Pool.spawn pool (fun () ->
                          Trace.instant ~cat:"t" (Printf.sprintf "task-%d" i);
                          i))
                in
                List.iter
                  (fun t -> ignore (Taskpool.Pool.await pool t))
                  ts)))
  in
  Taskpool.Pool.shutdown pool;
  let tasks =
    List.filter
      (fun (e : Trace.event) ->
        String.length e.Trace.name >= 5
        && String.sub e.Trace.name 0 5 = "task-")
      c.Trace.events
  in
  Alcotest.(check int) "all tasks traced" 8 (List.length tasks);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check (option string))
        (e.Trace.name ^ " carries the spawner's tag")
        (Some "job-7") (req_arg e))
    tasks

(* ---- disabled fast path -------------------------------------------- *)

let test_disabled_no_allocation () =
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  let name_k () = "never-forced" in
  let body () = () in
  let iters = 100_000 in
  let run () =
    for _ = 1 to iters do
      Trace.instant ~cat:"t" "x";
      Trace.counter ~cat:"t" "c" [];
      Trace.span_k ~cat:"t" name_k body
    done
  in
  run ();
  (* warmed up *)
  let w0 = Gc.minor_words () in
  run ();
  let w1 = Gc.minor_words () in
  (* allow a few words for the Gc.minor_words boxing itself; anything
     per-call would show up as >= 2 * iters words *)
  Alcotest.(check bool) "no per-call allocation" true (w1 -. w0 < 256.)

let test_disabled_span_value () =
  Alcotest.(check int) "span passes result through" 42
    (Trace.span ~cat:"t" "x" (fun () -> 42))

let suite =
  [
    Alcotest.test_case "balanced B/E + monotonic per domain" `Quick
      test_balanced_and_monotonic;
    Alcotest.test_case "one ILP X event per solve" `Quick
      test_solver_events_present;
    Alcotest.test_case "chrome export parses and is well-formed" `Quick
      test_chrome_json_valid;
    Alcotest.test_case "ring overwrite keeps newest, reports dropped" `Quick
      test_ring_overflow_reported;
    Alcotest.test_case "metrics doc reports dropped_spans" `Quick
      test_metrics_reports_dropped;
    Alcotest.test_case "request tag attached, nested, restored" `Quick
      test_tag_attached_and_restored;
    Alcotest.test_case "request tag crosses taskpool workers" `Quick
      test_tag_crosses_taskpool;
    Alcotest.test_case "disabled recorder allocates nothing" `Quick
      test_disabled_no_allocation;
    Alcotest.test_case "disabled span is transparent" `Quick
      test_disabled_span_value;
  ]
