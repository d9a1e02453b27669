(** Static semantic analysis for Mini-C: name resolution, arity and
    dimensionality checks, and scalar result typing with implicit
    int/float conversion (as in C). *)

exception Error of string * Loc.t

type env = {
  vars : (string, Ast.ty) Hashtbl.t;
  funcs : (string, Ast.func) Hashtbl.t;
}

let err loc fmt = Format.kasprintf (fun s -> raise (Error (s, loc))) fmt

let scalar_of_ty loc = function
  | Ast.TScalar s -> s
  | Ast.TArray _ -> err loc "array used where a scalar is expected"
  | Ast.TVoid -> err loc "void value used"

let join a b =
  match (a, b) with Ast.SFloat, _ | _, Ast.SFloat -> Ast.SFloat | _ -> Ast.SInt

let lookup_var env loc name =
  match Hashtbl.find_opt env.vars name with
  | Some ty -> ty
  | None -> err loc "undeclared variable %s" name

let rec check_expr env loc (e : Ast.expr) : Ast.scalar =
  match e with
  | Ast.IntLit _ -> Ast.SInt
  | Ast.FloatLit _ -> Ast.SFloat
  | Ast.Var name -> scalar_of_ty loc (lookup_var env loc name)
  | Ast.ArrRef (name, idxs) -> (
      match lookup_var env loc name with
      | Ast.TArray (elem, dims) ->
          if List.length idxs <> List.length dims then
            err loc "array %s has %d dimensions, %d indices given" name
              (List.length dims) (List.length idxs);
          List.iter
            (fun i ->
              match check_expr env loc i with
              | Ast.SInt -> ()
              | Ast.SFloat -> err loc "array index must be an int")
            idxs;
          elem
      | _ -> err loc "%s is not an array" name)
  | Ast.Unop (op, e1) -> (
      let t = check_expr env loc e1 in
      match op with
      | Ast.Neg -> t
      | Ast.Not -> Ast.SInt
      | Ast.BitNot ->
          if Ast.equal_scalar t Ast.SFloat then
            err loc "bitwise operator on float";
          Ast.SInt)
  | Ast.Binop (op, e1, e2) -> (
      let t1 = check_expr env loc e1 in
      let t2 = check_expr env loc e2 in
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> join t1 t2
      | Ast.Mod | Ast.Shl | Ast.Shr | Ast.BAnd | Ast.BOr | Ast.BXor ->
          if Ast.equal_scalar (join t1 t2) Ast.SFloat then
            err loc "integer operator applied to float operand";
          Ast.SInt
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.LAnd
      | Ast.LOr ->
          Ast.SInt)
  | Ast.Call (name, args) -> scalar_of_ty loc (check_call env loc name args)

(** Check a call's arity and argument types; returns the return type
    (possibly [TVoid], which only statement position accepts). *)
and check_call env loc name args : Ast.ty =
  match Builtins.find name with
  | Some b ->
      if List.length args <> Builtins.arity b then
        err loc "builtin %s expects %d arguments" name (Builtins.arity b);
      List.iter (fun a -> ignore (check_expr env loc a)) args;
      Ast.TScalar (Builtins.ret b)
  | None -> (
      match Hashtbl.find_opt env.funcs name with
      | None -> err loc "call to undefined function %s" name
      | Some f ->
          if List.length args <> List.length f.fparams then
            err loc "function %s expects %d arguments" name
              (List.length f.fparams);
          List.iter2
            (fun (p : Ast.param) a ->
              match (p.pty, a) with
              | Ast.TArray (es, ds), Ast.Var arg_name -> (
                  match lookup_var env loc arg_name with
                  | Ast.TArray (es', ds') when Ast.equal_scalar es es' && ds = ds'
                    ->
                      ()
                  | _ ->
                      err loc
                        "argument for array parameter %s of %s must be an \
                         array of matching shape"
                        p.pname name)
              | Ast.TArray _, _ ->
                  err loc
                    "argument for array parameter %s of %s must be a variable"
                    p.pname name
              | Ast.TScalar _, a -> ignore (check_expr env loc a)
              | Ast.TVoid, _ -> assert false)
            f.fparams args;
          f.fret)

let check_lhs env loc = function
  | Ast.LVar name -> scalar_of_ty loc (lookup_var env loc name)
  | Ast.LArr (name, idxs) -> check_expr env loc (Ast.ArrRef (name, idxs))

let rec check_block env fret (b : Ast.block) =
  (* Declarations are scoped to the enclosing block; we snapshot and restore
     shadowed bindings. *)
  let shadowed = ref [] in
  let declare (d : Ast.decl) loc =
    (match d.dty with
    | Ast.TVoid -> err loc "void variable %s" d.dname
    | _ -> ());
    shadowed := (d.dname, Hashtbl.find_opt env.vars d.dname) :: !shadowed;
    Hashtbl.replace env.vars d.dname d.dty
  in
  List.iter
    (fun (s : Ast.stmt) ->
      let loc = s.sloc in
      match s.sdesc with
      | Ast.Decl d ->
          (match (d.dinit, d.dty) with
          | Some e, Ast.TScalar _ -> ignore (check_expr env loc e)
          | Some _, _ -> err loc "only scalars can have initializers"
          | None, _ -> ());
          declare d loc
      | Ast.Assign (lhs, e) ->
          ignore (check_lhs env loc lhs);
          ignore (check_expr env loc e)
      | Ast.If (c, b1, b2) ->
          ignore (check_expr env loc c);
          check_block env fret b1;
          check_block env fret b2
      | Ast.While (c, body) ->
          ignore (check_expr env loc c);
          check_block env fret body
      | Ast.For { finit; fcond; fstep; fbody } ->
          Option.iter
            (fun (lhs, e) ->
              ignore (check_lhs env loc lhs);
              ignore (check_expr env loc e))
            finit;
          ignore (check_expr env loc fcond);
          Option.iter
            (fun (lhs, e) ->
              ignore (check_lhs env loc lhs);
              ignore (check_expr env loc e))
            fstep;
          check_block env fret fbody
      | Ast.Return None ->
          if not (Ast.equal_ty fret Ast.TVoid) then
            err loc "return without a value in a non-void function"
      | Ast.Return (Some e) ->
          if Ast.equal_ty fret Ast.TVoid then
            err loc "return with a value in a void function"
          else ignore (check_expr env loc e)
      | Ast.ExprStmt (Ast.Call (name, args)) ->
          (* statement position accepts void calls *)
          ignore (check_call env loc name args)
      | Ast.ExprStmt e -> ignore (check_expr env loc e)
      | Ast.Block body -> check_block env fret body)
    b;
  List.iter
    (fun (name, old) ->
      match old with
      | Some ty -> Hashtbl.replace env.vars name ty
      | None -> Hashtbl.remove env.vars name)
    !shadowed

let check_func env (f : Ast.func) =
  let shadowed = ref [] in
  List.iter
    (fun (p : Ast.param) ->
      shadowed := (p.pname, Hashtbl.find_opt env.vars p.pname) :: !shadowed;
      Hashtbl.replace env.vars p.pname p.pty)
    f.fparams;
  check_block env f.fret f.fbody;
  List.iter
    (fun (name, old) ->
      match old with
      | Some ty -> Hashtbl.replace env.vars name ty
      | None -> Hashtbl.remove env.vars name)
    !shadowed

(** Check a whole program.  Raises {!Error} on the first violation. *)
let check (prog : Ast.program) =
  let env = { vars = Hashtbl.create 64; funcs = Hashtbl.create 16 } in
  List.iter
    (fun (f : Ast.func) ->
      if Builtins.is_builtin f.fname then
        err f.floc "function %s shadows a builtin" f.fname;
      if Hashtbl.mem env.funcs f.fname then
        err f.floc "duplicate function %s" f.fname;
      Hashtbl.replace env.funcs f.fname f)
    prog.funcs;
  List.iter
    (fun (d : Ast.decl) ->
      (match d.dinit with
      | Some e -> ignore (check_expr env Loc.dummy e)
      | None -> ());
      Hashtbl.replace env.vars d.dname d.dty)
    prog.globals;
  List.iter (check_func env) prog.funcs;
  if not (List.exists (fun (f : Ast.func) -> String.equal f.fname "main") prog.funcs)
  then err Loc.dummy "program has no main function"
