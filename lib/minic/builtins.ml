(** Built-in functions available to Mini-C programs.

    All are pure math helpers; their evaluation cost (in abstract cycles)
    is part of the high-level timing model, mirroring how the paper's
    framework assigns per-statement costs from target simulation. *)

(** A builtin's implementation, by argument count and type: float
    builtins convert their arguments to float, int builtins to int. *)
type impl =
  | F1 of (float -> float)
  | F2 of (float -> float -> float)
  | I1 of (int -> int)
  | I2 of (int -> int -> int)

type t = {
  name : string;
  impl : impl;
  cycles : float;  (** abstract cycle cost at CPI 1 *)
}

let all =
  [
    { name = "sqrt"; impl = F1 sqrt; cycles = 18. };
    { name = "fabs"; impl = F1 Float.abs; cycles = 2. };
    { name = "sin"; impl = F1 sin; cycles = 28. };
    { name = "cos"; impl = F1 cos; cycles = 28. };
    { name = "exp"; impl = F1 exp; cycles = 30. };
    { name = "log"; impl = F1 log; cycles = 30. };
    { name = "pow"; impl = F2 Float.pow; cycles = 45. };
    { name = "floor"; impl = F1 Float.floor; cycles = 3. };
    { name = "abs"; impl = I1 Stdlib.abs; cycles = 2. };
    { name = "imin"; impl = I2 Stdlib.min; cycles = 2. };
    { name = "imax"; impl = I2 Stdlib.max; cycles = 2. };
    { name = "fmin"; impl = F2 Float.min; cycles = 2. };
    { name = "fmax"; impl = F2 Float.max; cycles = 2. };
  ]

let find name = List.find_opt (fun b -> String.equal b.name name) all
let is_builtin name = Option.is_some (find name)
let arity b = match b.impl with F1 _ | I1 _ -> 1 | F2 _ | I2 _ -> 2

(** Result type; arguments are converted to the same type. *)
let ret b = match b.impl with F1 _ | F2 _ -> Ast.SFloat | I1 _ | I2 _ -> Ast.SInt
