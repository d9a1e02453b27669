open Minic
module Node = Htg.Node
module Defuse = Htg.Defuse
module SS = Defuse.SS
module Solution = Parcore.Solution
module Eval = Interp.Eval
module Value = Interp.Value

type ctx = {
  pool : Pool.t;
  metrics : Metrics.t;
  max_steps : int;
  code : Eval.code;  (** the HTG's statements, compiled once per run *)
  slots : int;  (** profile slots for scratch environments *)
  watch : Watchdog.t option;
}

exception Expired_receive of string
(** A def-use receive was expired by the watchdog (timeout/deadlock
    verdict); carries the receive's label.  Internal — mapped to a typed
    error at the top level. *)

let beat ctx = match ctx.watch with Some w -> Watchdog.beat w | None -> ()

let scratch_env ctx store =
  let supervision =
    Option.map
      (fun w ->
        { Eval.cancel = Watchdog.cancel_token w; pulse = Watchdog.pulse_counter w })
      ctx.watch
  in
  Eval.make_env ?supervision ~max_steps:ctx.max_steps
    ~profile:(Interp.Profile.create ctx.slots) store

(* Does a block survive HTG conversion as a node?  Mirrors the builder's
   conversion, which drops blocks that are empty all the way down; used to
   map a taken branch arm to its child index (children = cond :: present
   arms). *)
let rec stmt_present s =
  match s.Ast.sdesc with Ast.Block b -> List.exists stmt_present b | _ -> true

let region_present b = List.exists stmt_present b

(* ------------------------------------------------------------------ *)
(* Fork/join dataflow analysis                                         *)
(* ------------------------------------------------------------------ *)

type src = Parent | Child of int

type cover = {
  imports : (string * src) list array;
      (** per child: variables to bind before executing it, and where the
          freshest value lives *)
  merges : (string * int) list;
      (** variables live after the node, with the last child defining them *)
}

(* Names declared at the top level of a statement list — visible to the
   node's later children (sibling scope).  [Node.defs] misses these: the
   builder's external footprint excludes a [Decl]'s own name, so sourcing
   decisions must not rely on the node's edge list alone. *)
let direct_decls stmts =
  List.fold_left
    (fun acc s -> match s.Ast.sdesc with Ast.Decl d -> SS.add d.Ast.dname acc | _ -> acc)
    SS.empty stmts

let cover_of (node : Node.t) : cover =
  let k = Array.length node.Node.children in
  let provides =
    Array.init k (fun i ->
        let c = node.Node.children.(i) in
        SS.union c.Node.defs (direct_decls c.Node.stmts))
  in
  let imports =
    Array.init k (fun j ->
        let c = node.Node.children.(j) in
        (* defs are imported too: a conditional (may-)definition left
           unwritten must merge back as the chained value, so the child
           starts from it *)
        let needed =
          SS.diff (SS.union c.Node.uses c.Node.defs) (direct_decls c.Node.stmts)
        in
        SS.fold
          (fun v acc ->
            let rec source i =
              if i < 0 then Parent
              else if SS.mem v provides.(i) then Child i
              else source (i - 1)
            in
            (v, source (j - 1)) :: acc)
          needed []
        |> List.rev)
  in
  let locals =
    List.fold_left (fun acc s -> SS.union acc (Defuse.stmt_locals s)) SS.empty node.Node.stmts
  in
  let all_provided = Array.fold_left SS.union SS.empty provides in
  let merges =
    SS.fold
      (fun v acc ->
        let rec last i =
          if i < 0 then None else if SS.mem v provides.(i) then Some i else last (i - 1)
        in
        match last (k - 1) with Some i -> (v, i) :: acc | None -> acc)
      (SS.diff all_provided locals) []
    |> List.rev
  in
  { imports; merges }

(* Largest-remainder apportionment of [n] iterations over float weights;
   deterministic (remainder goes to the largest fractional part, ties to
   the earlier task). *)
let apportion n weights =
  let m = Array.length weights in
  let total = Array.fold_left ( +. ) 0. weights in
  let q = Array.make m 0 in
  if total <= 0. then q.(0) <- n
  else begin
    let raw = Array.map (fun w -> float_of_int n *. w /. total) weights in
    Array.iteri (fun i r -> q.(i) <- int_of_float (Float.floor r)) raw;
    let rem = n - Array.fold_left ( + ) 0 q in
    let idx = Array.init m (fun i -> i) in
    Array.sort
      (fun a b ->
        let fa = raw.(a) -. float_of_int q.(a) and fb = raw.(b) -. float_of_int q.(b) in
        if fa = fb then compare a b else compare fb fa)
      idx;
    for i = 0 to rem - 1 do
      q.(idx.(i mod m)) <- q.(idx.(i mod m)) + 1
    done
  end;
  q

(* ------------------------------------------------------------------ *)
(* Node execution                                                      *)
(* ------------------------------------------------------------------ *)

let rec exec_node ctx env (node : Node.t) (sol : Solution.t) : unit =
  if sol.Solution.node_id <> node.Node.id then fallback ctx env node
  else
    match sol.Solution.kind with
    | Solution.Seq _ -> Eval.exec_stmts env node.Node.stmts
    | Solution.Split sp -> exec_split ctx env node sp
    | Solution.Par p -> (
        let child_sol j =
          if j < Array.length p.Solution.child_choice then Some p.Solution.child_choice.(j)
          else None
        in
        match (node.Node.kind, Solution.partition sol) with
        | Node.Region, Some part -> fork ctx env node (cover_of node) part child_sol
        | Node.Loop _, Some part -> loop_fork ctx env node part child_sol
        | Node.Branch _, _ -> exec_branch ctx env node child_sol
        | _ -> fallback ctx env node)
    | Solution.Pipeline _ -> (
        (* conservative pipeline execution: the stage partition forks per
           iteration (loop) or once (region), with a join barrier instead
           of streaming overlap — same values, same task structure *)
        match (node.Node.kind, Solution.partition sol) with
        | Node.Loop _, Some part -> loop_fork ctx env node part (fun _ -> None)
        | Node.Region, Some part -> fork ctx env node (cover_of node) part (fun _ -> None)
        | _ -> fallback ctx env node)

and fallback ctx env (node : Node.t) =
  Metrics.incr ctx.metrics.Metrics.seq_fallbacks;
  Eval.exec_stmts env node.Node.stmts

and exec_child ctx env (child : Node.t) = function
  | Some sol -> exec_node ctx env child sol
  | None -> Eval.exec_stmts env child.Node.stmts

(* A Branch node's children are [cond; present arms]; the cond child
   covers the whole [if] statement, so it is never executed as a node —
   the condition is evaluated inline and only the taken arm runs. *)
and exec_branch ctx env (node : Node.t) child_sol =
  match node.Node.stmts with
  | [ ({ Ast.sdesc = Ast.If (_, b1, b2); _ } as s) ] -> (
      Eval.tick_env env;
      let taken = Eval.test env s in
      let b1p = region_present b1 and b2p = region_present b2 in
      let arm =
        if taken then if b1p then Some 1 else None
        else if b2p then Some (if b1p then 2 else 1)
        else None
      in
      match arm with
      | Some i when i < Array.length node.Node.children ->
          exec_child ctx env node.Node.children.(i) (child_sol i)
      | _ -> ())
  | _ -> fallback ctx env node

(* A parallelized loop: run the loop control on the caller's store and
   fork the body partition once per iteration (join per iteration keeps
   loop-carried values flowing through the parent store). *)
and loop_fork ctx env (node : Node.t) part child_sol =
  let cov = cover_of node in
  let fork_body () = fork ctx env node cov part child_sol in
  match node.Node.stmts with
  | [ ({ Ast.sdesc = Ast.For _; _ } as s) ] ->
      Eval.tick_env env;
      Eval.for_init env s;
      let rec loop () =
        Eval.tick_env env;
        if Eval.test env s then begin
          fork_body ();
          Eval.for_step env s;
          loop ()
        end
      in
      loop ()
  | [ ({ Ast.sdesc = Ast.While _; _ } as s) ] ->
      Eval.tick_env env;
      let rec loop () =
        Eval.tick_env env;
        if Eval.test env s then begin
          fork_body ();
          loop ()
        end
      in
      loop ()
  | _ -> fallback ctx env node

(* Fork/join over the children of a hierarchical node.  Each task gets an
   isolated store; values cross task boundaries only through write-once
   channels (producer child, variable) and the final join merge. *)
and fork ctx env (node : Node.t) (cov : cover) (part : Solution.partition) child_sol =
  let owner = part.Solution.owner in
  let m = Array.length part.Solution.classes in
  let k = Array.length node.Node.children in
  if Array.length owner <> k then fallback ctx env node
  else if m <= 1 then begin
    Metrics.incr ctx.metrics.Metrics.inline_forks;
    Array.iteri (fun j c -> exec_child ctx env c (child_sol j)) node.Node.children
  end
  else begin
    Metrics.incr ctx.metrics.Metrics.forks;
    Metrics.add ctx.metrics.Metrics.tasks_spawned (m - 1);
    let parent_store = Eval.env_store env in
    (* one write-once cell per (producer child, var) crossing tasks *)
    let cells : (int * string, Channel.t) Hashtbl.t = Hashtbl.create 16 in
    Array.iteri
      (fun j imps ->
        List.iter
          (fun (v, src) ->
            match src with
            | Child i when owner.(i) <> owner.(j) ->
                if not (Hashtbl.mem cells (i, v)) then Hashtbl.add cells (i, v) (Channel.create ())
            | _ -> ())
          imps)
      cov.imports;
    let out_cells = Array.make k [] in
    Hashtbl.iter (fun (i, v) c -> out_cells.(i) <- (v, c) :: out_cells.(i)) cells;
    let children_of t =
      let acc = ref [] in
      Array.iteri (fun j o -> if o = t then acc := j :: !acc) owner;
      List.rev !acc
    in
    let run_task t =
      let store = Eval.new_store ctx.code in
      let tenv = scratch_env ctx store in
      let err = ref None in
      let publish j =
        List.iter
          (fun (v, cell) ->
            let payload = Option.map Value.copy (Eval.find store v) in
            (match payload with
            | Some p -> Metrics.add ctx.metrics.Metrics.bytes_sent (Value.size_bytes p)
            | None -> ());
            Metrics.incr ctx.metrics.Metrics.sends;
            Channel.send ctx.pool cell payload)
          out_cells.(j)
      in
      let import j =
        List.iter
          (fun (v, src) ->
            match src with
            | Parent ->
                if not (Eval.mem store v) then
                  Option.iter
                    (fun x -> Eval.set store v (Value.copy x))
                    (Eval.find parent_store v)
            | Child i when owner.(i) = t -> ()
            | Child i -> (
                match Hashtbl.find_opt cells (i, v) with
                | None -> ()
                | Some cell -> (
                    Metrics.incr ctx.metrics.Metrics.recvs;
                    let label = Printf.sprintf "task%d:%s<-child%d" t v i in
                    match Channel.recv ?watch:ctx.watch ~label ctx.pool cell with
                    | Ok (Some value) -> Eval.set store v (Value.copy value)
                    | Ok None -> () (* producer failed or never bound it *)
                    | Error `Expired -> raise (Expired_receive label))))
          cov.imports.(j)
      in
      let rec go = function
        | [] -> ()
        | j :: rest -> (
            match
              import j;
              beat ctx;
              exec_child ctx tenv node.Node.children.(j) (child_sol j);
              publish j;
              beat ctx
            with
            | () -> go rest
            | exception e ->
                err := Some (j, e);
                (* release all consumers still waiting on this task *)
                List.iter
                  (fun j' -> List.iter (fun (_, cell) -> Channel.poison ctx.pool cell) out_cells.(j'))
                  (children_of t))
      in
      go (children_of t);
      (!err, store, Eval.env_steps tenv)
    in
    let task_label t =
      if Trace.enabled () then Printf.sprintf "node%d.task%d" node.Node.id t
      else "task"
    in
    let futs =
      List.init (m - 1) (fun i ->
          Pool.spawn ~label:(task_label (i + 1)) ctx.pool (fun () -> run_task (i + 1)))
    in
    let r0 = run_task 0 in
    let results =
      Array.of_list
        (r0
        :: List.map
             (fun f ->
               match Pool.await ctx.pool f with
               | Ok r -> r
               | Error e -> (Some (max_int, e), Eval.new_store ctx.code, 0))
             futs)
    in
    Array.iter (fun (_, _, steps) -> Metrics.add ctx.metrics.Metrics.steps steps) results;
    (* re-raise the earliest failure in program order (Return_exn from the
       earliest child is exactly what sequential execution would do) *)
    let first_err =
      Array.fold_left
        (fun acc (e, _, _) ->
          match (e, acc) with
          | Some (j, ex), Some (j', _) when j < j' -> Some (j, ex)
          | Some (j, ex), None -> Some (j, ex)
          | _, acc -> acc)
        None results
    in
    match first_err with
    | Some (_, ex) -> raise ex
    | None ->
        List.iter
          (fun (v, i) ->
            let _, st, _ = results.(owner.(i)) in
            Option.iter
              (fun x ->
                Metrics.incr ctx.metrics.Metrics.merges;
                Eval.set parent_store v (Value.copy x))
              (Eval.find st v))
          cov.merges
  end

(* DOALL loop chunking.  Every chunk task replays the full loop control
   (cheap by DOALL construction: the body cannot affect it) but executes
   the body only for its own iteration range.  Arrays are shared between
   chunk stores — DOALL guarantees disjoint writes — while scalars are
   privatized and the last chunk's final values merge back. *)
and exec_split ctx env (node : Node.t) (sp : Solution.split) =
  match (node.Node.kind, node.Node.stmts) with
  | Node.Loop { doall = true; _ }, [ ({ Ast.sdesc = Ast.For ({ Ast.fbody; _ } as f); _ } as s) ]
    -> (
      match Htg.Loops.canonical_induction f with
      | None -> fallback ctx env node
      | Some ind when SS.mem ind (Defuse.block_all fbody).Defuse.defs ->
          (* the classifier tolerates a body writing its own induction
             variable; chunked control replay would diverge, so demote *)
          fallback ctx env node
      | Some _ -> run_split ctx env s f sp)
  | _ -> fallback ctx env node

(* A chunk's store: scalars privatized, array payloads shared with the
   parent (DOALL writes are disjoint; canonical control only reads). *)
and private_store ctx parent_store =
  let store = Eval.new_store ctx.code in
  Eval.iter (Eval.set store) parent_store;
  store

and count_iters ctx parent_store (s : Ast.stmt) =
  (* control-only replay *)
  let cenv = scratch_env ctx (private_store ctx parent_store) in
  Eval.for_init cenv s;
  let n = ref 0 in
  let rec go () =
    if Eval.test cenv s then begin
      Eval.tick_env cenv;
      incr n;
      Eval.for_step cenv s;
      go ()
    end
  in
  go ();
  !n

and run_split ctx env (s : Ast.stmt) (f : Ast.for_loop) (sp : Solution.split) =
  let parent_store = Eval.env_store env in
  Eval.tick_env env;
  let n = count_iters ctx parent_store s in
  if n = 0 then Eval.exec_stmts env [ s ] (* header effects only *)
  else begin
    Metrics.incr ctx.metrics.Metrics.splits;
    (* task 0 always participates (it hosts the join), plus every task the
       ILP gave iterations to — mirrors the simulator's realization *)
    let used =
      0
      :: List.filter
           (fun t -> t > 0 && sp.Solution.chunk_iters.(t) > 0.)
           (List.init (Array.length sp.Solution.chunk_iters) (fun t -> t))
    in
    let weights = Array.of_list (List.map (fun t -> sp.Solution.chunk_iters.(t)) used) in
    let m = Array.length weights in
    let quota = apportion n weights in
    let lo = Array.make m 0 and hi = Array.make m 0 in
    let acc = ref 0 in
    for t = 0 to m - 1 do
      lo.(t) <- !acc;
      acc := !acc + quota.(t);
      hi.(t) <- !acc
    done;
    Metrics.incr ctx.metrics.Metrics.forks;
    Metrics.add ctx.metrics.Metrics.tasks_spawned (m - 1);
    let run_chunk t =
      let store = private_store ctx parent_store in
      let cenv = scratch_env ctx store in
      let err = ref None in
      (try
         Eval.for_init cenv s;
         let i = ref 0 in
         let rec go () =
           if Eval.test cenv s then begin
             if !i >= lo.(t) && !i < hi.(t) then Eval.exec_stmts cenv f.Ast.fbody;
             incr i;
             Eval.for_step cenv s;
             go ()
           end
         in
         go ()
       with e -> err := Some e);
      (!err, store, Eval.env_steps cenv)
    in
    let chunk_label t =
      if Trace.enabled () then Printf.sprintf "chunk%d" t else "chunk"
    in
    let futs =
      List.init (m - 1) (fun i ->
          Pool.spawn ~label:(chunk_label (i + 1)) ctx.pool (fun () -> run_chunk (i + 1)))
    in
    let r0 = run_chunk 0 in
    let results =
      Array.of_list
        (r0
        :: List.map
             (fun fu ->
               match Pool.await ctx.pool fu with
               | Ok r -> r
               | Error e -> (Some e, Eval.new_store ctx.code, 0))
             futs)
    in
    Array.iter (fun (_, _, steps) -> Metrics.add ctx.metrics.Metrics.steps steps) results;
    (match
       Array.fold_left (fun acc (e, _, _) -> match acc with Some _ -> acc | None -> e) None results
     with
    | Some e -> raise e
    | None -> ());
    (* scalars after a DOALL loop carry the last iteration's values: take
       them from the task that ran the last chunk (arrays updated in place) *)
    let last_t = ref 0 in
    for t = 0 to m - 1 do
      if quota.(t) > 0 then last_t := t
    done;
    let _, lstore, _ = results.(!last_t) in
    let merge_set = SS.diff (Defuse.stmt_all s).Defuse.defs (Defuse.stmt_locals s) in
    SS.iter
      (fun v ->
        match Eval.find lstore v with
        | Some ((Value.VInt _ | Value.VFloat _) as sv) ->
            Metrics.incr ctx.metrics.Metrics.merges;
            Eval.set parent_store v sv
        | _ -> ())
      merge_set
  end

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

type result = { ret : Value.t option; steps : int; metrics : Metrics.snapshot }

(* Shared driver: run the program under an optional watchdog and report
   the raw outcome together with the watchdog's verdict.  The verdict is
   read *before* the watchdog is stopped so a timeout/deadlock that fired
   during the run is never lost. *)
let run_watched ?domains ?(max_steps = Eval.default_max_steps) ?(timeout_s = 0.)
    ?(grace_s = 0.5) (prog : Ast.program) (root : Node.t) (sol : Solution.t) =
  let watch =
    if timeout_s > 0. then Some (Watchdog.create ~grace_s ~timeout_s ()) else None
  in
  let pool = Pool.create ?domains () in
  let metrics = Metrics.create () in
  let t0 = Unix.gettimeofday () in
  let outcome =
    try
      Ok
        (Pool.run pool (fun () ->
             (* compile the statements the HTG holds: [prog] may be a
                separate compile of the same source, whose inlined locals
                carry other names *)
             let code = Eval.compile ~globals:prog.Ast.globals root.Node.stmts in
             let ctx =
               { pool; metrics; max_steps; code; slots = Eval.profile_slots prog; watch }
             in
             let env = scratch_env ctx (Eval.new_store code) in
             let ret =
               try
                 Eval.init_globals env;
                 exec_node ctx env root sol;
                 None
               with Eval.Return_exn v -> v
             in
             Metrics.add metrics.Metrics.steps (Eval.env_steps env);
             ret))
    with e -> Error e
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let verdict =
    match watch with None -> Watchdog.Running | Some w -> Watchdog.verdict w
  in
  Option.iter Watchdog.stop watch;
  let snap =
    Metrics.snapshot metrics ~domains:(Pool.size pool) ~wall_s ~steals:(Pool.steals pool)
      ~worker_busy_s:(Pool.worker_busy_s pool) ~worker_tasks:(Pool.worker_tasks pool)
      ~worker_steals:(Pool.worker_steals pool)
  in
  Pool.shutdown pool;
  let outcome =
    Result.map (fun ret -> { ret; steps = snap.Metrics.n_steps; metrics = snap }) outcome
  in
  (outcome, verdict)

let verdict_error = function
  | Watchdog.Running -> None
  | Watchdog.Timed_out ->
      Some
        (Mpsoc_error.make ~phase:Execute ~kind:Timeout
           ~advice:"raise --timeout or reduce the input size"
           "execution exceeded the wall-clock deadline")
  | Watchdog.Deadlocked waiting_tasks ->
      Some
        (Mpsoc_error.make ~phase:Execute
           ~kind:(Deadlock { waiting_tasks })
           ~advice:
             "the task graph has a receive with no reachable producer; report the \
              solution tree and fault plan"
           (Printf.sprintf "deadlock: %d receive(s) parked with no progress"
              (List.length waiting_tasks)))

let error_of_exn verdict e =
  match verdict_error verdict with
  | Some err -> err
  | None -> (
      match e with
      | Mpsoc_error.Error err -> err
      | Eval.Step_limit_exceeded n ->
          Mpsoc_error.make ~phase:Execute ~kind:Resource_limit
            ~advice:"raise --max-steps"
            (Printf.sprintf "interpreted-statement budget exceeded (%d steps)" n)
      | Eval.Runtime_error msg ->
          Mpsoc_error.make ~phase:Execute ~kind:Invalid_input msg
      | Fault.Injected { point; hit } ->
          Mpsoc_error.make ~phase:Execute ~kind:(Fault_injected point)
            (Printf.sprintf "armed fault plan fired on hit %d" hit)
      | Eval.Cancelled | Expired_receive _ ->
          (* cancellation implies a verdict; if the race hid it, report a
             plain timeout rather than an internal error *)
          Mpsoc_error.make ~phase:Execute ~kind:Timeout
            "execution cancelled by the watchdog"
      | e ->
          Mpsoc_error.make ~phase:Execute ~kind:Internal (Printexc.to_string e))

let run ?domains ?max_steps ?timeout_s ?grace_s prog root sol : result =
  let outcome, verdict =
    run_watched ?domains ?max_steps ?timeout_s ?grace_s prog root sol
  in
  match outcome with
  | Ok r -> r
  | Error e -> (
      match verdict_error verdict with
      | Some err -> raise (Mpsoc_error.Error err)
      | None -> raise e)

let run_result ?domains ?max_steps ?timeout_s ?grace_s prog root sol :
    (result, Mpsoc_error.t) Stdlib.result =
  let outcome, verdict =
    run_watched ?domains ?max_steps ?timeout_s ?grace_s prog root sol
  in
  match outcome with Ok r -> Ok r | Error e -> Error (error_of_exn verdict e)

let ret_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Value.equal x y
  | _ -> false

let validate ?domains ?max_steps ?timeout_s ?grace_s prog root sol =
  let seq = Eval.run ?max_steps prog in
  let par = run ?domains ?max_steps ?timeout_s ?grace_s prog root sol in
  (par, seq, ret_equal par.ret seq.Eval.ret)
