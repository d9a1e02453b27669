(** Runtime values of the Mini-C interpreter.  Arrays are stored flattened
    with their dimension vector. *)

type t =
  | VInt of int
  | VFloat of float
  | VArrI of { data : int array; dims : int list }
  | VArrF of { data : float array; dims : int list }

exception Runtime_error of string

(** Raise {!Runtime_error} with a formatted message. *)
val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

val to_int : t -> int

(** Flattened offset with per-dimension bounds checks. *)
val flat_index : dims:int list -> idxs:int list -> int

(** Deep copy: array payloads are duplicated so the copy can be mutated
    (or sent to another domain) without aliasing the original. *)
val copy : t -> t

(** Structural equality; floats compare with {!Float.equal} (NaN = NaN). *)
val equal : t -> t -> bool

val size_bytes : t -> int
val pp : Format.formatter -> t -> unit
