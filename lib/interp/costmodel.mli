(** High-level timing model: abstract cycle weights per operation at CPI 1
    (the substitute for the paper's cycle-accurate cost extraction).
    Only relative magnitudes matter to the parallelizer. *)

open Minic

val int_binop : Ast.binop -> float
val float_binop : Ast.binop -> float
val binop : float_op:bool -> Ast.binop -> float
val unop : Ast.unop -> float
val var_read : float
val array_access : float
val store_scalar : float
val store_array : float
val literal : float
val branch : float
