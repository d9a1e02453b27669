(** Runtime values of the Mini-C interpreter.  Arrays are stored flattened
    with their dimension vector for index computation. *)

type t =
  | VInt of int
  | VFloat of float
  | VArrI of { data : int array; dims : int list }
  | VArrF of { data : float array; dims : int list }

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let to_int = function
  | VInt n -> n
  | VFloat f -> int_of_float f
  | VArrI _ | VArrF _ -> error "array used as a scalar"

(** Flattened offset for [idxs] in an array of shape [dims]; bounds are
    checked per dimension. *)
let flat_index ~dims ~idxs =
  let rec go dims idxs acc =
    match (dims, idxs) with
    | [], [] -> acc
    | d :: dims', i :: idxs' ->
        if i < 0 || i >= d then
          error "array index %d out of bounds for dimension of size %d" i d
        else go dims' idxs' ((acc * d) + i)
    | _ -> error "wrong number of array indices"
  in
  go dims idxs 0

(** Deep copy: array payloads are duplicated so the copy can be mutated
    (or sent to another domain) without aliasing the original. *)
let copy = function
  | (VInt _ | VFloat _) as v -> v
  | VArrI { data; dims } -> VArrI { data = Array.copy data; dims }
  | VArrF { data; dims } -> VArrF { data = Array.copy data; dims }

(** Structural equality (exact, including float bit-for-bit via [=]). *)
let equal a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> Float.equal x y
  | VArrI x, VArrI y -> x.dims = y.dims && x.data = y.data
  | VArrF x, VArrF y ->
      x.dims = y.dims
      && Array.length x.data = Array.length y.data
      && Array.for_all2 Float.equal x.data y.data
  | _ -> false

let size_bytes = function
  | VInt _ | VFloat _ -> 4
  | VArrI { data; _ } -> 4 * Array.length data
  | VArrF { data; _ } -> 4 * Array.length data

let pp ppf = function
  | VInt n -> Fmt.int ppf n
  | VFloat f -> Fmt.float ppf f
  | VArrI { data; dims } ->
      Fmt.pf ppf "int[%a]{%a%s}"
        Fmt.(list ~sep:(any "][") int)
        dims
        Fmt.(array ~sep:comma int)
        (Array.sub data 0 (min 8 (Array.length data)))
        (if Array.length data > 8 then ", ..." else "")
  | VArrF { data; dims } ->
      Fmt.pf ppf "float[%a]{%a%s}"
        Fmt.(list ~sep:(any "][") int)
        dims
        Fmt.(array ~sep:comma float)
        (Array.sub data 0 (min 8 (Array.length data)))
        (if Array.length data > 8 then ", ..." else "")
