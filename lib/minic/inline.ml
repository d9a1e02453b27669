(** Function inlining.

    The task-graph builder and the interpreter operate on a single [main]
    body, so user-defined function calls are inlined first — this mirrors
    the paper's handling of the "function" granularity level: each inlined
    body becomes one hierarchical node (an [Ast.Block]) in the AHTG.

    Supported call shapes (checked; everything else is rejected):
    - statement calls:      [f(a, b);]
    - whole-RHS assignment: [x = f(a, b);]

    Scalar arguments are bound by value into fresh locals; array arguments
    are passed by reference via name substitution (the argument must be an
    array variable).  A [return e] may only appear as the last statement of
    a non-void callee and becomes an assignment to the call target.
    Recursion is rejected. *)

exception Error of string * Loc.t

module SSet = Set.Make (String)

let err loc fmt = Format.kasprintf (fun s -> raise (Error (s, loc))) fmt

(* ------------------------------------------------------------------ *)
(* Renaming                                                            *)
(* ------------------------------------------------------------------ *)

let rename_of tbl name =
  match Hashtbl.find_opt tbl name with Some n -> n | None -> name

let rename_expr tbl = Rename.map_expr (rename_of tbl)
let rename_lhs tbl = Rename.map_lhs (rename_of tbl)

let rec rename_stmt tbl (s : Ast.stmt) : Ast.stmt =
  let sdesc =
    match s.sdesc with
    | Ast.Assign (lhs, e) -> Ast.Assign (rename_lhs tbl lhs, rename_expr tbl e)
    | Ast.If (c, b1, b2) ->
        Ast.If (rename_expr tbl c, rename_block tbl b1, rename_block tbl b2)
    | Ast.For { finit; fcond; fstep; fbody } ->
        let ra = Option.map (fun (l, e) -> (rename_lhs tbl l, rename_expr tbl e)) in
        Ast.For
          {
            finit = ra finit;
            fcond = rename_expr tbl fcond;
            fstep = ra fstep;
            fbody = rename_block tbl fbody;
          }
    | Ast.While (c, b) -> Ast.While (rename_expr tbl c, rename_block tbl b)
    | Ast.Return e -> Ast.Return (Option.map (rename_expr tbl) e)
    | Ast.ExprStmt e -> Ast.ExprStmt (rename_expr tbl e)
    | Ast.Decl d ->
        Ast.Decl
          {
            d with
            dname = rename_of tbl d.dname;
            dinit = Option.map (rename_expr tbl) d.dinit;
          }
    | Ast.Block b -> Ast.Block (rename_block tbl b)
  in
  { s with sdesc }

and rename_block tbl b = List.map (rename_stmt tbl) b

(* ------------------------------------------------------------------ *)
(* Call-graph checks                                                   *)
(* ------------------------------------------------------------------ *)

let called_functions (f : Ast.func) : string list =
  let acc = ref [] in
  let visit_expr e =
    Ast.iter_expr
      (function
        | Ast.Call (name, _) when not (Builtins.is_builtin name) ->
            if not (List.mem name !acc) then acc := name :: !acc
        | _ -> ())
      e
  in
  ignore
    (Ast.fold_stmts
       (fun () s -> List.iter visit_expr (Ast.stmt_exprs s))
       () f.fbody);
  !acc

(** Topological order of functions, callees first.  Raises on recursion. *)
let topo_order (prog : Ast.program) : Ast.func list =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit stack (f : Ast.func) =
    if List.mem f.fname stack then
      err f.floc "recursive call cycle through %s" f.fname;
    match Hashtbl.find_opt visited f.fname with
    | Some () -> ()
    | None ->
        List.iter
          (fun callee ->
            match Ast.find_func prog callee with
            | Some g -> visit (f.fname :: stack) g
            | None -> err f.floc "call to undefined function %s" callee)
          (called_functions f);
        Hashtbl.replace visited f.fname ();
        order := f :: !order
  in
  List.iter (visit []) prog.funcs;
  List.rev !order

(* ------------------------------------------------------------------ *)
(* Inlining proper                                                     *)
(* ------------------------------------------------------------------ *)

let site_counter = ref 0

let locals_of_block (b : Ast.block) : string list =
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      match s.sdesc with Ast.Decl d -> d.dname :: acc | _ -> acc)
    [] b

(** Split a callee body into (body-without-final-return, return-expr). *)
let split_return loc (f : Ast.func) =
  match List.rev f.fbody with
  | { Ast.sdesc = Ast.Return (Some e); _ } :: rest -> (List.rev rest, Some e)
  | body_rev -> (
      (* no trailing return: ensure no return appears anywhere *)
      let has_return =
        Ast.fold_stmts
          (fun acc (s : Ast.stmt) ->
            acc || match s.sdesc with Ast.Return _ -> true | _ -> false)
          false f.fbody
      in
      if has_return then
        err loc "function %s: return must be the last statement to be inlinable"
          f.fname
      else (List.rev body_rev, None))

(** Names assigned (as l-values) anywhere in the subtree. *)
let assigned_names (b : Ast.block) : SSet.t =
  let add_lhs acc = function
    | Ast.LVar n | Ast.LArr (n, _) -> SSet.add n acc
  in
  List.fold_left
    (fun acc s ->
      Ast.fold_stmts
        (fun acc (st : Ast.stmt) ->
          match st.sdesc with
          | Ast.Assign (lhs, _) -> add_lhs acc lhs
          | Ast.For { finit; fstep; _ } ->
              let acc =
                match finit with Some (l, _) -> add_lhs acc l | None -> acc
              in
              (match fstep with Some (l, _) -> add_lhs acc l | None -> acc)
          | _ -> acc)
        acc [ s ])
    SSet.empty b

(** Expand one call to [f] with [args]; [target] receives the return value.
    Returns the replacement statements (wrapped by the caller in a Block). *)
let expand_call loc (f : Ast.func) (args : Ast.expr list)
    (target : Ast.lhs option) : Ast.stmt list =
  incr site_counter;
  let tag = Printf.sprintf "%s_%d" f.fname !site_counter in
  let tbl = Hashtbl.create 16 in
  (* fresh names for locals *)
  List.iter
    (fun n -> Hashtbl.replace tbl n (Printf.sprintf "%s_%s" tag n))
    (locals_of_block f.fbody);
  let assigned = assigned_names f.fbody in
  (* parameters: arrays by reference; scalar [Var] arguments of read-only
     parameters propagate by name (keeps e.g. induction variables visible
     to the loop analyses); other scalars bind by value into fresh
     locals *)
  let bindings =
    List.concat
      (List.map2
         (fun (p : Ast.param) arg ->
           match (p.pty, arg) with
           | Ast.TArray _, Ast.Var a ->
               Hashtbl.replace tbl p.pname a;
               []
           | Ast.TArray _, _ ->
               err loc "array argument of %s must be a variable" f.fname
           | Ast.TScalar _, Ast.Var a when not (SSet.mem p.pname assigned) ->
               Hashtbl.replace tbl p.pname a;
               []
           | Ast.TScalar _, _ ->
               let fresh = Printf.sprintf "%s_%s" tag p.pname in
               Hashtbl.replace tbl p.pname fresh;
               [
                 {
                   Ast.sid = 0;
                   sloc = loc;
                   sdesc = Ast.Decl { dname = fresh; dty = p.pty; dinit = Some arg };
                 };
               ]
           | Ast.TVoid, _ -> assert false)
         f.fparams args)
  in
  let body, ret = split_return loc f in
  let body = rename_block tbl body in
  let ret_stmt =
    match (target, ret) with
    | None, _ -> []
    | Some lhs, Some e ->
        [ { Ast.sid = 0; sloc = loc; sdesc = Ast.Assign (lhs, rename_expr tbl e) } ]
    | Some _, None ->
        err loc "function %s returns no value but its result is used" f.fname
  in
  bindings @ body @ ret_stmt

let rec has_user_call (e : Ast.expr) =
  let found = ref false in
  Ast.iter_expr
    (function
      | Ast.Call (name, _) when not (Builtins.is_builtin name) -> found := true
      | _ -> ())
    e;
  ignore has_user_call;
  !found

(** Inline all user calls in a block.  All callees must already be
    call-free (guaranteed by processing in topological order). *)
let rec inline_block funcs (b : Ast.block) : Ast.block =
  List.map (inline_stmt funcs) b

and inline_stmt funcs (s : Ast.stmt) : Ast.stmt =
  let loc = s.sloc in
  let check_no_call e =
    if has_user_call e then
      err loc
        "user-function calls may only appear as a whole statement or the \
         whole right-hand side of an assignment"
  in
  match s.sdesc with
  | Ast.ExprStmt (Ast.Call (name, args)) when not (Builtins.is_builtin name) ->
      let f =
        match Hashtbl.find_opt funcs name with
        | Some f -> f
        | None -> err loc "call to undefined function %s" name
      in
      List.iter check_no_call args;
      { s with sdesc = Ast.Block (expand_call loc f args None) }
  | Ast.Assign (lhs, Ast.Call (name, args))
    when not (Builtins.is_builtin name) ->
      let f =
        match Hashtbl.find_opt funcs name with
        | Some f -> f
        | None -> err loc "call to undefined function %s" name
      in
      List.iter check_no_call args;
      { s with sdesc = Ast.Block (expand_call loc f args (Some lhs)) }
  | Ast.Assign (lhs, e) ->
      check_no_call e;
      (match lhs with
      | Ast.LArr (_, idxs) -> List.iter check_no_call idxs
      | Ast.LVar _ -> ());
      s
  | Ast.If (c, b1, b2) ->
      check_no_call c;
      { s with sdesc = Ast.If (c, inline_block funcs b1, inline_block funcs b2) }
  | Ast.For f ->
      List.iter check_no_call (Ast.stmt_exprs s);
      { s with sdesc = Ast.For { f with fbody = inline_block funcs f.fbody } }
  | Ast.While (c, b) ->
      check_no_call c;
      { s with sdesc = Ast.While (c, inline_block funcs b) }
  | Ast.Block b -> { s with sdesc = Ast.Block (inline_block funcs b) }
  | Ast.Return (Some e) ->
      check_no_call e;
      s
  | Ast.Decl { dinit = Some e; _ } ->
      check_no_call e;
      s
  | Ast.ExprStmt e ->
      check_no_call e;
      s
  | Ast.Return None | Ast.Decl { dinit = None; _ } -> s

(** Inline every user-defined call transitively, returning a program whose
    only function is [main] with a call-free body.  Shadowing declarations
    get fresh names ({!Rename.unshadow}) and statement ids are
    renumbered. *)
let program (prog : Ast.program) : Ast.program =
  let order = topo_order prog in
  let inlined : (string, Ast.func) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) ->
      let body = inline_block inlined f.fbody in
      Hashtbl.replace inlined f.fname { f with fbody = body })
    order;
  let main =
    match Hashtbl.find_opt inlined "main" with
    | Some m -> m
    | None -> err Loc.dummy "program has no main function"
  in
  Rename.renumber (Rename.unshadow { prog with funcs = [ main ] })
