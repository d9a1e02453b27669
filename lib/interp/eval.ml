(** Profiling interpreter for inlined Mini-C programs.

    Executes [main] on concrete (in-source, deterministic) data and records
    per-statement execution counts and abstract work into a {!Profile.t}.

    Evaluation is compile-once.  One pass over the program resolves every
    variable to a slot of a per-program symbol table, every builtin to its
    function and every index list to a bounds-checked offset closure, and
    gives every expression its static type, so each expression becomes an
    [env -> int] or [env -> float] closure over unboxed slot arrays.  A
    statement's cycle cost depends only on its syntax and those static
    types, so the pass folds it into a constant, summed in the association
    order the costs compose in: an operator's cost after its operands',
    left to right. *)

open Minic

exception Runtime_error = Value.Runtime_error

type result = {
  ret : Value.t option;  (** value of [return] in main, if any *)
  profile : Profile.t;
  steps : int;  (** statements executed *)
}

exception Step_limit_exceeded of int

(** Cooperative supervision for runtime execution: a watchdog sets
    [cancel]; the interpreter bumps [pulse] and checks [cancel] every
    1024 steps, raising {!Cancelled} — so even pure compute loops
    terminate on a timeout verdict. *)
type supervision = { cancel : bool Atomic.t; pulse : int Atomic.t }

exception Cancelled
exception Return_exn of Value.t option

let default_max_steps = 50_000_000

(** Slots a profile needs to cover every statement id of [prog]. *)
let profile_slots (prog : Ast.program) : int =
  let max_sid =
    List.fold_left
      (fun acc (f : Ast.func) ->
        Ast.fold_stmts (fun m (s : Ast.stmt) -> max m s.sid) acc f.fbody)
      0 prog.funcs
  in
  max (max_sid + 1) (Ast.stmt_count prog)

(* ------------------------------------------------------------------ *)
(* Compiled code, slot stores, environments                            *)
(* ------------------------------------------------------------------ *)

(* A variable: its slot and declared type (one per name — the frontend
   renames shadowing declarations). *)
type sym = { name : string; slot : int; ty : Ast.ty }

type code = {
  syms : (string, sym) Hashtbl.t;
  order : sym array;  (** by slot *)
  sids : int;  (** profile slots the body's statement ids need *)
  globals : env -> unit;
  body : env -> unit;
  stmts : (env -> unit) array;  (** by statement id *)
  heads : head array;  (** loop/branch heads, by statement id *)
}

(* One array per slot kind, indexed by slot; [bound] marks the slots that
   hold a value.  A slot's kind is fixed by its symbol's type, so only one
   of the four arrays is meaningful per slot. *)
and store = {
  code : code;
  ints : int array;
  floats : float array;
  iarrs : int array array;
  farrs : float array array;
  bound : Bytes.t;
}

and env = {
  store : store;
  e_ints : int array;
  e_floats : float array;
  e_iarrs : int array array;
  e_farrs : float array array;
  e_bound : Bytes.t;
  counts : int array;
  work : float array;
  total : float array;
      (** running total_work, one unboxed cell; {!run} writes it back *)
  mutable steps : int;
  max_steps : int;
  supervision : supervision option;
}

and head = { init : env -> unit; test : env -> bool; step : env -> unit }

let new_store code =
  let n = Array.length code.order in
  {
    code;
    ints = Array.make n 0;
    floats = Array.make n 0.;
    iarrs = Array.make n [||];
    farrs = Array.make n [||];
    bound = Bytes.make n '\000';
  }

let make_env ?(max_steps = default_max_steps) ?supervision ~(profile : Profile.t)
    (st : store) : env =
  if min (Array.length profile.Profile.counts) (Array.length profile.Profile.work)
     < st.code.sids
  then invalid_arg "Eval.make_env: profile smaller than the program";
  {
    store = st;
    e_ints = st.ints;
    e_floats = st.floats;
    e_iarrs = st.iarrs;
    e_farrs = st.farrs;
    e_bound = st.bound;
    counts = profile.Profile.counts;
    work = profile.Profile.work;
    total = [| profile.Profile.total_work |];
    steps = 0;
    max_steps;
    supervision;
  }

let env_store env = env.store
let env_steps env = env.steps

let tick env =
  let n = env.steps + 1 in
  env.steps <- n;
  if n > env.max_steps then raise (Step_limit_exceeded n);
  if n land 1023 = 0 then
    match env.supervision with
    | Some s ->
        Atomic.incr s.pulse;
        if Atomic.get s.cancel then raise Cancelled
    | None -> ()

let tick_env = tick

(* [make_env] checked the profile covers every statement id *)
let[@inline] record env sid c =
  Array.unsafe_set env.counts sid (Array.unsafe_get env.counts sid + 1);
  Array.unsafe_set env.work sid (Array.unsafe_get env.work sid +. c);
  Array.unsafe_set env.total 0 (Array.unsafe_get env.total 0 +. c)

let[@inline] add_work env sid c =
  Array.unsafe_set env.work sid (Array.unsafe_get env.work sid +. c);
  Array.unsafe_set env.total 0 (Array.unsafe_get env.total 0 +. c)

(* a zero-cost execution: [work] and [total] are unchanged by adding 0. *)
let[@inline] count env sid =
  Array.unsafe_set env.counts sid (Array.unsafe_get env.counts sid + 1)

(* ---- the name-keyed store API --------------------------------------- *)

let live_slot (st : store) name =
  match Hashtbl.find_opt st.code.syms name with
  | Some sym when Bytes.get st.bound sym.slot <> '\000' -> Some sym
  | _ -> None

let value_of (st : store) sym : Value.t =
  let i = sym.slot in
  match sym.ty with
  | Ast.TScalar Ast.SInt -> Value.VInt st.ints.(i)
  | Ast.TScalar Ast.SFloat -> Value.VFloat st.floats.(i)
  | Ast.TArray (Ast.SInt, dims) -> Value.VArrI { data = st.iarrs.(i); dims }
  | Ast.TArray (Ast.SFloat, dims) -> Value.VArrF { data = st.farrs.(i); dims }
  | Ast.TVoid -> assert false (* [compile] rejects void variables *)

let find st name = Option.map (value_of st) (live_slot st name)
let mem st name = Option.is_some (live_slot st name)

let set st name (v : Value.t) =
  match Hashtbl.find_opt st.code.syms name with
  | None -> invalid_arg ("Eval.set: no variable " ^ name)
  | Some sym ->
      let i = sym.slot in
      (match (sym.ty, v) with
      | Ast.TScalar Ast.SInt, Value.VInt n -> st.ints.(i) <- n
      | Ast.TScalar Ast.SFloat, Value.VFloat f -> st.floats.(i) <- f
      | Ast.TArray (Ast.SInt, dims), Value.VArrI a when a.dims = dims ->
          st.iarrs.(i) <- a.data
      | Ast.TArray (Ast.SFloat, dims), Value.VArrF a when a.dims = dims ->
          st.farrs.(i) <- a.data
      | _ -> invalid_arg ("Eval.set: value does not match the type of " ^ name));
      Bytes.set st.bound i '\001'

let iter f st =
  Array.iter
    (fun sym -> if Bytes.get st.bound sym.slot <> '\000' then f sym.name (value_of st sym))
    st.code.order

(* ------------------------------------------------------------------ *)
(* Expressions: static type, closure and constant cost                 *)
(* ------------------------------------------------------------------ *)

type cexp = I of (env -> int) | F of (env -> float)

let unbound name = Value.error "unbound variable %s" name

let[@inline] check_bound env slot name =
  if Bytes.unsafe_get env.e_bound slot = '\000' then unbound name

let to_i = function I f -> f | F f -> fun env -> int_of_float (f env)
let to_f = function F f -> f | I f -> fun env -> float_of_int (f env)

(* C truthiness *)
let truth = function
  | I f -> fun env -> f env <> 0
  | F f -> fun env -> f env <> 0.

let fails msg = I (fun _ -> Value.error "%s" msg)

let int_binop op (a : env -> int) (b : env -> int) : env -> int =
  match op with
  | Ast.Add -> fun env -> let x = a env in let y = b env in x + y
  | Ast.Sub -> fun env -> let x = a env in let y = b env in x - y
  | Ast.Mul -> fun env -> let x = a env in let y = b env in x * y
  | Ast.Div ->
      fun env ->
        let x = a env in
        let y = b env in
        if y = 0 then Value.error "integer division by zero" else x / y
  | Ast.Mod ->
      fun env ->
        let x = a env in
        let y = b env in
        if y = 0 then Value.error "integer modulo by zero" else x mod y
  | Ast.Lt -> fun env -> let x = a env in let y = b env in if x < y then 1 else 0
  | Ast.Le -> fun env -> let x = a env in let y = b env in if x <= y then 1 else 0
  | Ast.Gt -> fun env -> let x = a env in let y = b env in if x > y then 1 else 0
  | Ast.Ge -> fun env -> let x = a env in let y = b env in if x >= y then 1 else 0
  | Ast.Eq -> fun env -> let x = a env in let y = b env in if x = y then 1 else 0
  | Ast.Ne -> fun env -> let x = a env in let y = b env in if x <> y then 1 else 0
  | Ast.LAnd ->
      fun env -> let x = a env in let y = b env in if x <> 0 && y <> 0 then 1 else 0
  | Ast.LOr ->
      fun env -> let x = a env in let y = b env in if x <> 0 || y <> 0 then 1 else 0
  | Ast.Shl -> fun env -> let x = a env in let y = b env in x lsl y
  | Ast.Shr -> fun env -> let x = a env in let y = b env in x asr y
  | Ast.BAnd -> fun env -> let x = a env in let y = b env in x land y
  | Ast.BOr -> fun env -> let x = a env in let y = b env in x lor y
  | Ast.BXor -> fun env -> let x = a env in let y = b env in x lxor y

let float_binop op (a : env -> float) (b : env -> float) : cexp =
  match op with
  | Ast.Add -> F (fun env -> let x = a env in let y = b env in x +. y)
  | Ast.Sub -> F (fun env -> let x = a env in let y = b env in x -. y)
  | Ast.Mul -> F (fun env -> let x = a env in let y = b env in x *. y)
  | Ast.Div -> F (fun env -> let x = a env in let y = b env in x /. y)
  | Ast.Lt -> I (fun env -> let x = a env in let y = b env in if x < y then 1 else 0)
  | Ast.Le -> I (fun env -> let x = a env in let y = b env in if x <= y then 1 else 0)
  | Ast.Gt -> I (fun env -> let x = a env in let y = b env in if x > y then 1 else 0)
  | Ast.Ge -> I (fun env -> let x = a env in let y = b env in if x >= y then 1 else 0)
  | Ast.Eq -> I (fun env -> let x = a env in let y = b env in if x = y then 1 else 0)
  | Ast.Ne -> I (fun env -> let x = a env in let y = b env in if x <> y then 1 else 0)
  | Ast.LAnd ->
      I (fun env -> let x = a env in let y = b env in if x <> 0. && y <> 0. then 1 else 0)
  | Ast.LOr ->
      I (fun env -> let x = a env in let y = b env in if x <> 0. || y <> 0. then 1 else 0)
  | Ast.Mod | Ast.Shl | Ast.Shr | Ast.BAnd | Ast.BOr | Ast.BXor ->
      I
        (fun env ->
          ignore (a env : float);
          ignore (b env : float);
          Value.error "integer operator applied to float operands")

let oob i d = Value.error "array index %d out of bounds for dimension of size %d" i d

(* Flat row-major offset of an index list: the indices are evaluated left
   to right, then the array must be bound, then each index is checked
   against its dimension. *)
let offset ~name ~slot dims (xs : (env -> int) list) : env -> int =
  match (dims, xs) with
  | [ d0 ], [ x0 ] ->
      fun env ->
        let i0 = x0 env in
        check_bound env slot name;
        if i0 < 0 || i0 >= d0 then oob i0 d0 else i0
  | [ d0; d1 ], [ x0; x1 ] ->
      fun env ->
        let i0 = x0 env in
        let i1 = x1 env in
        check_bound env slot name;
        if i0 < 0 || i0 >= d0 then oob i0 d0
        else if i1 < 0 || i1 >= d1 then oob i1 d1
        else (i0 * d1) + i1
  | [ d0; d1; d2 ], [ x0; x1; x2 ] ->
      fun env ->
        let i0 = x0 env in
        let i1 = x1 env in
        let i2 = x2 env in
        check_bound env slot name;
        if i0 < 0 || i0 >= d0 then oob i0 d0
        else if i1 < 0 || i1 >= d1 then oob i1 d1
        else if i2 < 0 || i2 >= d2 then oob i2 d2
        else (((i0 * d1) + i1) * d2) + i2
  | _ ->
      fun env ->
        let idxs = List.map (fun x -> x env) xs in
        check_bound env slot name;
        Value.flat_index ~dims ~idxs

let sum_costs cs = List.fold_left ( +. ) 0. cs

(* [expr lookup e] is [e]'s closure and cycle cost. *)
let rec expr lookup (e : Ast.expr) : cexp * float =
  match e with
  | Ast.IntLit n -> (I (fun _ -> n), Costmodel.literal)
  | Ast.FloatLit f -> (F (fun _ -> f), Costmodel.literal)
  | Ast.Var name ->
      let x =
        match lookup name with
        | None -> I (fun _ -> unbound name)
        | Some { slot; ty = Ast.TScalar Ast.SInt; _ } ->
            I
              (fun env ->
                check_bound env slot name;
                Array.unsafe_get env.e_ints slot)
        | Some { slot; ty = Ast.TScalar Ast.SFloat; _ } ->
            F
              (fun env ->
                check_bound env slot name;
                Array.unsafe_get env.e_floats slot)
        | Some _ -> fails "array used as a scalar"
      in
      (x, Costmodel.var_read)
  | Ast.ArrRef (name, idxs) ->
      let xs = List.map (expr lookup) idxs in
      let cost = sum_costs (List.map snd xs) +. Costmodel.array_access in
      let ixs = List.map (fun (x, _) -> to_i x) xs in
      let x =
        match lookup name with
        | Some { slot; ty = Ast.TArray (Ast.SInt, dims); _ } ->
            let off = offset ~name ~slot dims ixs in
            I (fun env -> let k = off env in (Array.unsafe_get env.e_iarrs slot).(k))
        | Some { slot; ty = Ast.TArray (Ast.SFloat, dims); _ } ->
            let off = offset ~name ~slot dims ixs in
            F (fun env -> let k = off env in (Array.unsafe_get env.e_farrs slot).(k))
        | Some _ -> fails (name ^ " is not an array")
        | None -> I (fun _ -> unbound name)
      in
      (x, cost)
  | Ast.Unop (op, e1) ->
      let x, c = expr lookup e1 in
      let c = c +. Costmodel.unop op in
      let x =
        match (op, x) with
        | Ast.Neg, I f -> I (fun env -> -f env)
        | Ast.Neg, F f -> F (fun env -> -.f env)
        | Ast.Not, I f -> I (fun env -> if f env = 0 then 1 else 0)
        | Ast.Not, F f -> I (fun env -> if f env = 0. then 1 else 0)
        | Ast.BitNot, x ->
            let f = to_i x in
            I (fun env -> lnot (f env))
      in
      (x, c)
  | Ast.Binop (op, e1, e2) ->
      let x1, c1 = expr lookup e1 in
      let x2, c2 = expr lookup e2 in
      let float_op = match (x1, x2) with I _, I _ -> false | _ -> true in
      let c = c1 +. c2 +. Costmodel.binop ~float_op op in
      if float_op then (float_binop op (to_f x1) (to_f x2), c)
      else (I (int_binop op (to_i x1) (to_i x2)), c)
  | Ast.Call (name, args) -> (
      match Builtins.find name with
      | None ->
          ( fails
              (Printf.sprintf "call to %s: interpreter requires an inlined program"
                 name),
            0. )
      | Some b ->
          let xs = List.map (expr lookup) args in
          let cost = sum_costs (List.map snd xs) +. b.Builtins.cycles in
          let x =
            match (b.Builtins.impl, List.map fst xs) with
            | Builtins.F1 f, [ a ] ->
                let a = to_f a in
                F (fun env -> f (a env))
            | Builtins.F2 f, [ a; b ] ->
                let a = to_f a and b = to_f b in
                F (fun env -> let x = a env in let y = b env in f x y)
            | Builtins.I1 f, [ a ] ->
                let a = to_i a in
                I (fun env -> f (a env))
            | Builtins.I2 f, [ a; b ] ->
                let a = to_i a and b = to_i b in
                I (fun env -> let x = a env in let y = b env in f x y)
            | _ ->
                fails
                  (Printf.sprintf "builtin %s expects %d arguments" name
                     (Builtins.arity b))
          in
          (x, cost))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* Store the value of [x] into [lhs], converting to the declared type;
   the closure and the store's cycle cost.  The right-hand side is
   evaluated first, then the indices, then the target must be bound. *)
let assign lookup (lhs : Ast.lhs) (x : cexp) : (env -> unit) * float =
  match lhs with
  | Ast.LVar name ->
      let st =
        match lookup name with
        | Some { slot; ty = Ast.TScalar Ast.SInt; _ } ->
            let v = to_i x in
            fun env ->
              let n = v env in
              check_bound env slot name;
              Array.unsafe_set env.e_ints slot n
        | Some { slot; ty = Ast.TScalar Ast.SFloat; _ } ->
            let v = to_f x in
            fun env ->
              let f = v env in
              check_bound env slot name;
              Array.unsafe_set env.e_floats slot f
        | Some { slot; _ } ->
            let v = to_f x in
            fun env ->
              ignore (v env : float);
              check_bound env slot name;
              Value.error "cannot assign a scalar to array %s" name
        | None ->
            let v = to_f x in
            fun env ->
              ignore (v env : float);
              unbound name
      in
      (st, Costmodel.store_scalar)
  | Ast.LArr (name, idxs) ->
      let xs = List.map (expr lookup) idxs in
      let cost = sum_costs (List.map snd xs) +. Costmodel.store_array in
      let ixs = List.map (fun (x, _) -> to_i x) xs in
      let st =
        match lookup name with
        | Some { slot; ty = Ast.TArray (Ast.SInt, dims); _ } ->
            let off = offset ~name ~slot dims ixs and v = to_i x in
            fun env ->
              let n = v env in
              let k = off env in
              (Array.unsafe_get env.e_iarrs slot).(k) <- n
        | Some { slot; ty = Ast.TArray (Ast.SFloat, dims); _ } ->
            let off = offset ~name ~slot dims ixs and v = to_f x in
            fun env ->
              let f = v env in
              let k = off env in
              (Array.unsafe_get env.e_farrs slot).(k) <- f
        | sym ->
            let v = to_f x in
            fun env ->
              ignore (v env : float);
              List.iter (fun ix -> ignore (ix env : int)) ixs;
              if Option.is_none sym then unbound name;
              Value.error "%s is not an array" name
      in
      (st, cost)

(* Bind a declared variable: its initial value converted to the declared
   type, or a zeroed scalar or array; the closure and the cycle cost. *)
let declare lookup (d : Ast.decl) : (env -> unit) * float =
  let slot = match lookup d.Ast.dname with Some s -> s.slot | None -> assert false in
  let init, c =
    match d.dinit with
    | Some e ->
        let x, c = expr lookup e in
        (x, c +. Costmodel.store_scalar)
    | None -> (I (fun _ -> 0), Costmodel.store_scalar)
  in
  let bind =
    match (d.dty, d.dinit) with
    | Ast.TScalar Ast.SInt, _ ->
        let v = to_i init in
        fun env -> Array.unsafe_set env.e_ints slot (v env)
    | Ast.TScalar Ast.SFloat, _ ->
        let v = to_f init in
        fun env -> Array.unsafe_set env.e_floats slot (v env)
    | Ast.TArray (Ast.SInt, dims), None ->
        let n = List.fold_left ( * ) 1 dims in
        fun env -> Array.unsafe_set env.e_iarrs slot (Array.make n 0)
    | Ast.TArray (Ast.SFloat, dims), None ->
        let n = List.fold_left ( * ) 1 dims in
        fun env -> Array.unsafe_set env.e_farrs slot (Array.make n 0.)
    | Ast.TArray _, Some _ -> fun _ -> Value.error "only scalars can have initializers"
    | Ast.TVoid, _ -> assert false (* [compile] rejects void variables *)
  in
  ( (fun env ->
      bind env;
      Bytes.unsafe_set env.e_bound slot '\001'),
    c )

let seq (ks : (env -> unit) list) : env -> unit =
  match ks with
  | [] -> fun _ -> ()
  | [ a ] -> a
  | [ a; b ] -> fun env -> a env; b env
  | [ a; b; c ] -> fun env -> a env; b env; c env
  | _ ->
      let ks = Array.of_list ks in
      fun env ->
        for i = 0 to Array.length ks - 1 do
          (Array.unsafe_get ks i) env
        done

let nop (_ : env) = ()

let no_head =
  {
    init = (fun _ -> invalid_arg "Eval: not a loop head");
    test = (fun _ -> invalid_arg "Eval: not a branch or loop head");
    step = (fun _ -> invalid_arg "Eval: not a loop head");
  }

(* Compile [s], registering it (and its head) under its statement id. *)
let rec stmt lookup stmts heads (s : Ast.stmt) : env -> unit =
  let sid = s.sid in
  let block = block lookup stmts heads in
  let k =
    match s.sdesc with
    | Ast.Decl d ->
        let bind, c = declare lookup d in
        fun env ->
          tick env;
          bind env;
          record env sid c
    | Ast.Assign (lhs, e) ->
        let x, c = expr lookup e in
        let st, c' = assign lookup lhs x in
        let c = c +. c' in
        fun env ->
          tick env;
          st env;
          record env sid c
    | Ast.If (cond, b1, b2) ->
        let x, c = expr lookup cond in
        let test = truth x and c = c +. Costmodel.branch in
        let k1 = block b1 and k2 = block b2 in
        heads.(sid) <- { no_head with test };
        fun env ->
          tick env;
          let v = test env in
          record env sid c;
          if v then k1 env else k2 env
    | Ast.While (cond, body) ->
        let x, c = expr lookup cond in
        let test = truth x and c = c +. Costmodel.branch in
        let kb = block body in
        heads.(sid) <- { no_head with test };
        fun env ->
          tick env;
          count env sid;
          (* each condition test counts as a step so that an empty loop
             body still makes progress towards the step limit *)
          let go = ref true in
          while !go do
            tick env;
            let v = test env in
            add_work env sid c;
            if v then kb env else go := false
          done
    | Ast.For { finit; fcond; fstep; fbody } ->
        (* the bare assignment (for the runtime) and the profiled one *)
        let assignment = function
          | Some (lhs, e) ->
              let x, c = expr lookup e in
              let st, c' = assign lookup lhs x in
              let c = c +. c' in
              (st, fun env -> st env; add_work env sid c)
          | None -> (nop, nop)
        in
        let init, init_p = assignment finit and step, step_p = assignment fstep in
        let x, c = expr lookup fcond in
        let test = truth x and c = c +. Costmodel.branch in
        let kb = block fbody in
        heads.(sid) <- { init; test; step };
        fun env ->
          tick env;
          count env sid;
          init_p env;
          let go = ref true in
          while !go do
            tick env;
            let v = test env in
            add_work env sid c;
            if v then begin
              kb env;
              step_p env
            end
            else go := false
          done
    | Ast.Return None ->
        fun env ->
          tick env;
          count env sid;
          raise (Return_exn None)
    | Ast.Return (Some e) ->
        let x, c = expr lookup e in
        let v =
          match x with
          | I f -> fun env -> Value.VInt (f env)
          | F f -> fun env -> Value.VFloat (f env)
        in
        fun env ->
          tick env;
          let r = v env in
          record env sid c;
          raise (Return_exn (Some r))
    | Ast.ExprStmt e ->
        let x, c = expr lookup e in
        let v =
          match x with
          | I f -> fun env -> ignore (f env : int)
          | F f -> fun env -> ignore (f env : float)
        in
        fun env ->
          tick env;
          v env;
          record env sid c
    | Ast.Block body ->
        let kb = block body in
        fun env ->
          tick env;
          count env sid;
          kb env
  in
  stmts.(sid) <- k;
  k

and block lookup stmts heads (b : Ast.block) = seq (List.map (stmt lookup stmts heads) b)

(** Compile a program's globals and a statement list (its [main] body):
    one slot per variable name, one closure per statement. *)
let compile ~(globals : Ast.decl list) (body : Ast.block) : code =
  let syms = Hashtbl.create 64 and order = ref [] in
  let add (d : Ast.decl) =
    match Hashtbl.find_opt syms d.dname with
    | Some sym when Ast.equal_ty sym.ty d.dty -> ()
    | Some _ ->
        Value.error "variable %s is declared with two types; compile the \
                     program through Frontend.compile" d.dname
    | None ->
        if Ast.equal_ty d.dty Ast.TVoid then Value.error "cannot create a void value";
        let sym = { name = d.dname; slot = Hashtbl.length syms; ty = d.dty } in
        Hashtbl.add syms d.dname sym;
        order := sym :: !order
  in
  List.iter add globals;
  Ast.fold_stmts
    (fun () (s : Ast.stmt) -> match s.sdesc with Ast.Decl d -> add d | _ -> ())
    () body;
  let lookup = Hashtbl.find_opt syms in
  let sids = Ast.fold_stmts (fun m (s : Ast.stmt) -> max m (s.sid + 1)) 0 body in
  let stmts = Array.make sids (fun _ -> invalid_arg "Eval: unknown statement")
  and heads = Array.make sids no_head in
  (* global initializers convert to the declared type, as a [Decl] does,
     but run unprofiled and without a step *)
  let globals = seq (List.map (fun d -> fst (declare lookup d)) globals) in
  let body = block lookup stmts heads body in
  { syms; order = Array.of_list (List.rev !order); sids; globals; body; stmts; heads }

(* ------------------------------------------------------------------ *)
(* Re-entrant entry points (used by the execution runtime)             *)
(* ------------------------------------------------------------------ *)

let init_globals env = env.store.code.globals env

let exec_stmts env (b : Ast.block) =
  List.iter (fun (s : Ast.stmt) -> env.store.code.stmts.(s.sid) env) b

let head env (s : Ast.stmt) = env.store.code.heads.(s.sid)
let test env s = (head env s).test env
let for_init env s = (head env s).init env
let for_step env s = (head env s).step env

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Run the inlined program's [main].  [max_steps] bounds interpreted
    statements (default 50 million). *)
let run ?(max_steps = default_max_steps) (prog : Ast.program) : result =
  let main =
    match Ast.find_func prog "main" with
    | Some m -> m
    | None -> Value.error "program has no main function"
  in
  if List.length main.fparams > 0 then
    Value.error "main must take no parameters";
  let code = compile ~globals:prog.globals main.fbody in
  let profile = Profile.create (profile_slots prog) in
  let env = make_env ~max_steps ~profile (new_store code) in
  init_globals env;
  let ret = try code.body env; None with Return_exn v -> v in
  profile.Profile.total_work <- env.total.(0);
  { ret; profile; steps = env.steps }
