(** Function inlining: replaces user-defined calls so the analyses operate
    on a single [main] body.  Each inlined body becomes one [Ast.Block]
    (one hierarchical node in the AHTG — the paper's "function"
    granularity level).

    Supported call shapes: statement calls [f(a, b);] and whole-RHS
    assignments [x = f(a, b);].  Arrays pass by reference (name
    substitution); scalar [Var] arguments of read-only parameters
    propagate by name; other scalars bind by value.  A [return e] may only
    be the last statement of a non-void callee.  Recursion is rejected. *)

exception Error of string * Loc.t

(** Callees of a function (user functions only). *)
val called_functions : Ast.func -> string list

(** Topological order of functions, callees first; raises on recursion. *)
val topo_order : Ast.program -> Ast.func list

(** Inline every user-defined call transitively; the result's only
    function is [main], with shadowing declarations renamed
    ({!Rename.unshadow}) and renumbered statement ids. *)
val program : Ast.program -> Ast.program
