(** Statement-id renumbering, scope renaming and structural comparison
    helpers. *)

module SS = Set.Make (String)
module SM = Map.Make (String)

(** Apply [f] to every variable name an expression mentions. *)
let rec map_expr f (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.IntLit _ | Ast.FloatLit _ -> e
  | Ast.Var n -> Ast.Var (f n)
  | Ast.ArrRef (n, idxs) -> Ast.ArrRef (f n, List.map (map_expr f) idxs)
  | Ast.Unop (op, e1) -> Ast.Unop (op, map_expr f e1)
  | Ast.Binop (op, e1, e2) -> Ast.Binop (op, map_expr f e1, map_expr f e2)
  | Ast.Call (fn, args) -> Ast.Call (fn, List.map (map_expr f) args)

let map_lhs f = function
  | Ast.LVar n -> Ast.LVar (f n)
  | Ast.LArr (n, idxs) -> Ast.LArr (f n, List.map (map_expr f) idxs)

(* Every variable name the program declares, reads or writes. *)
let names (prog : Ast.program) : SS.t =
  let acc = ref SS.empty in
  let add n = acc := SS.add n !acc in
  let expr = Ast.iter_expr (function Ast.Var n | Ast.ArrRef (n, _) -> add n | _ -> ()) in
  List.iter
    (fun (d : Ast.decl) ->
      add d.dname;
      Option.iter expr d.dinit)
    prog.globals;
  List.iter
    (fun (f : Ast.func) ->
      List.iter (fun (p : Ast.param) -> add p.pname) f.fparams;
      Ast.fold_stmts
        (fun () (s : Ast.stmt) ->
          let target = Option.iter (fun (l, _) -> add (Ast.lhs_name l)) in
          (match s.sdesc with
          | Ast.Decl d -> add d.dname
          | Ast.Assign (l, _) -> add (Ast.lhs_name l)
          | Ast.For { finit; fstep; _ } ->
              target finit;
              target fstep
          | _ -> ());
          List.iter expr (Ast.stmt_exprs s))
        () f.fbody)
    prog.funcs;
  !acc

(** Give a fresh name to every declaration that shadows a binding visible
    at that point, or that redeclares an out-of-scope name with another
    type, and rename the uses in its scope.  Afterwards each name denotes
    one variable of one type, so a flat name-keyed store (the
    interpreter's, the runtime's, HTG def-use) has C scoping.  A program
    without shadowing comes back unchanged. *)
let unshadow (prog : Ast.program) : Ast.program =
  let used = ref (names prog) in
  let rec fresh base k =
    let n = Printf.sprintf "%s_%d" base k in
    if SS.mem n !used then fresh base (k + 1)
    else begin
      used := SS.add n !used;
      n
    end
  in
  let declared : (string, Ast.ty) Hashtbl.t = Hashtbl.create 64 in
  (* [scope] maps each visible source name to its (possibly new) name *)
  let bind scope name ty =
    let clash =
      SM.mem name scope
      ||
      match Hashtbl.find_opt declared name with
      | Some ty' -> not (Ast.equal_ty ty ty')
      | None -> false
    in
    let name' = if clash then fresh name 1 else name in
    Hashtbl.replace declared name' ty;
    (name', SM.add name name' scope)
  in
  let rename scope n = Option.value (SM.find_opt n scope) ~default:n in
  let rec block scope (b : Ast.block) : Ast.block =
    List.rev (snd (List.fold_left (fun (scope, acc) s ->
        let scope, s = stmt scope s in
        (scope, s :: acc)) (scope, []) b))
  and stmt scope (s : Ast.stmt) : string SM.t * Ast.stmt =
    let e = map_expr (rename scope) and l = map_lhs (rename scope) in
    let asg = Option.map (fun (x, v) -> (l x, e v)) in
    let scope, sdesc =
      match s.sdesc with
      | Ast.Decl d ->
          (* the initializer sees the enclosing binding, as the type
             checker and the interpreter evaluate it *)
          let dinit = Option.map e d.dinit in
          let dname, scope = bind scope d.dname d.dty in
          (scope, Ast.Decl { d with dname; dinit })
      | Ast.Assign (x, v) -> (scope, Ast.Assign (l x, e v))
      | Ast.If (c, b1, b2) -> (scope, Ast.If (e c, block scope b1, block scope b2))
      | Ast.For f ->
          ( scope,
            Ast.For
              {
                finit = asg f.finit;
                fcond = e f.fcond;
                fstep = asg f.fstep;
                fbody = block scope f.fbody;
              } )
      | Ast.While (c, b) -> (scope, Ast.While (e c, block scope b))
      | Ast.Return r -> (scope, Ast.Return (Option.map e r))
      | Ast.ExprStmt x -> (scope, Ast.ExprStmt (e x))
      | Ast.Block b -> (scope, Ast.Block (block scope b))
    in
    (scope, { s with sdesc })
  in
  let scope, globals =
    List.fold_left
      (fun (scope, acc) (d : Ast.decl) ->
        let dinit = Option.map (map_expr (rename scope)) d.dinit in
        let dname, scope = bind scope d.dname d.dty in
        (scope, { d with dname; dinit } :: acc))
      (SM.empty, []) prog.globals
  in
  let func (f : Ast.func) =
    let scope, params =
      List.fold_left
        (fun (scope, acc) (p : Ast.param) ->
          let pname, scope = bind scope p.pname p.pty in
          (scope, { p with pname } :: acc))
        (scope, []) f.fparams
    in
    { f with fparams = List.rev params; fbody = block scope f.fbody }
  in
  { globals = List.rev globals; funcs = List.map func prog.funcs }

(** Assign fresh consecutive ids (document order) to every statement of the
    program.  Run after transformations that duplicate statements (e.g.
    inlining) so that profile annotations are unambiguous. *)
let renumber (prog : Ast.program) : Ast.program =
  let next = ref 0 in
  let fresh () =
    let n = !next in
    incr next;
    n
  in
  let rec stmt (s : Ast.stmt) : Ast.stmt =
    let sid = fresh () in
    let sdesc =
      match s.sdesc with
      | Ast.If (c, b1, b2) -> Ast.If (c, block b1, block b2)
      | Ast.For f -> Ast.For { f with fbody = block f.fbody }
      | Ast.While (c, b) -> Ast.While (c, block b)
      | Ast.Block b -> Ast.Block (block b)
      | (Ast.Assign _ | Ast.Return _ | Ast.ExprStmt _ | Ast.Decl _) as d -> d
    in
    { s with sid; sdesc }
  and block b = List.map stmt b in
  {
    prog with
    funcs = List.map (fun f -> { f with Ast.fbody = block f.Ast.fbody }) prog.funcs;
  }

(** Structural equality of programs ignoring statement ids and locations. *)
let equal_modulo_ids (a : Ast.program) (b : Ast.program) =
  let rec strip_stmt (s : Ast.stmt) : Ast.stmt =
    let sdesc =
      match s.sdesc with
      | Ast.If (c, b1, b2) -> Ast.If (c, strip_block b1, strip_block b2)
      | Ast.For f -> Ast.For { f with fbody = strip_block f.fbody }
      | Ast.While (c, blk) -> Ast.While (c, strip_block blk)
      | Ast.Block blk -> Ast.Block (strip_block blk)
      | (Ast.Assign _ | Ast.Return _ | Ast.ExprStmt _ | Ast.Decl _) as d -> d
    in
    { sid = 0; sloc = Loc.dummy; sdesc }
  and strip_block blk = List.map strip_stmt blk in
  let strip (p : Ast.program) =
    {
      p with
      funcs =
        List.map
          (fun f -> { f with Ast.fbody = strip_block f.Ast.fbody; floc = Loc.dummy })
          p.funcs;
    }
  in
  Ast.equal_program (strip a) (strip b)
