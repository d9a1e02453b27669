(** Statement-id renumbering, scope renaming and structural comparison
    helpers. *)

(** Apply a function to every variable name an expression or l-value
    mentions. *)
val map_expr : (string -> string) -> Ast.expr -> Ast.expr

val map_lhs : (string -> string) -> Ast.lhs -> Ast.lhs

(** Give a fresh name to every declaration that shadows a binding visible
    at that point, or that redeclares an out-of-scope name with another
    type, renaming the uses in its scope.  Afterwards each name denotes one
    variable of one type, so a flat name-keyed store has C scoping.  A
    program without shadowing comes back unchanged. *)
val unshadow : Ast.program -> Ast.program

(** Assign fresh consecutive ids (document order) to every statement. *)
val renumber : Ast.program -> Ast.program

(** Structural equality ignoring statement ids and source locations. *)
val equal_modulo_ids : Ast.program -> Ast.program -> bool
