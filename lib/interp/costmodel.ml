(** High-level timing model: abstract cycle weights per operation at CPI 1.

    The paper extracts per-statement execution costs by cycle-accurate
    target simulation (CoMET); this table is our substitute.  Only the
    *relative* magnitudes matter to the parallelizer — absolute per-class
    times are derived later by scaling with a processor class's clock
    frequency and CPI (see {!Platform.Proc_class.time_us}). *)

open Minic

let int_binop : Ast.binop -> float = function
  | Ast.Add | Ast.Sub -> 1.
  | Ast.Mul -> 3.
  | Ast.Div | Ast.Mod -> 12.
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> 1.
  | Ast.LAnd | Ast.LOr -> 1.
  | Ast.Shl | Ast.Shr | Ast.BAnd | Ast.BOr | Ast.BXor -> 1.

let float_binop : Ast.binop -> float = function
  | Ast.Add | Ast.Sub -> 4.
  | Ast.Mul -> 6.
  | Ast.Div -> 28.
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> 2.
  | Ast.Mod | Ast.LAnd | Ast.LOr | Ast.Shl | Ast.Shr | Ast.BAnd | Ast.BOr
  | Ast.BXor ->
      2.

let binop ~float_op op = if float_op then float_binop op else int_binop op

let unop : Ast.unop -> float = function
  | Ast.Neg -> 1.
  | Ast.Not -> 1.
  | Ast.BitNot -> 1.

(** Reading a scalar variable (register or L1 hit). *)
let var_read = 1.

(** Address computation + memory access for an array element. *)
let array_access = 3.

(** Storing to a scalar / to an array element. *)
let store_scalar = 1.

let store_array = 3.

(** Literal materialization. *)
let literal = 0.5

(** Branch evaluation overhead of an [if]/[while]/[for] iteration. *)
let branch = 2.
