(** In-memory span recorder for the traced run.  The benchmark records a
    span around each call it makes into a layer's public functions;
    nothing is written until the run ends.  A layer's self time is its
    spans' durations minus the part their child spans cover. *)

type span = { id : int; parent : int; layer : string; t0 : float; t1 : float }

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;  (** open spans, innermost first *)
}

let create () = { spans = []; next = 0; stack = [] }

(** Run [f] inside a span of [layer], nested under the open span
    (parent [-1] = none). *)
let span t layer f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = Util.now () in
  let close () =
    let t1 = Util.now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; layer; t0; t1 } :: t.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(** [(layer, total seconds, self seconds)] for every layer seen. *)
let layer_times t =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((try Hashtbl.find child_time s.parent with Not_found -> 0.)
          +. (s.t1 -. s.t0)))
    t.spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. (try Hashtbl.find child_time s.id with Not_found -> 0.) in
      let tot, sf = try Hashtbl.find acc s.layer with Not_found -> (0., 0.) in
      Hashtbl.replace acc s.layer (tot +. d, sf +. self))
    t.spans;
  Hashtbl.fold (fun l (tot, sf) a -> (l, tot, sf) :: a) acc []
  |> List.sort compare

let total t layer =
  List.fold_left
    (fun a (l, tot, _) -> if l = layer then a +. tot else a)
    0. (layer_times t)

let self t layer =
  List.fold_left
    (fun a (l, _, sf) -> if l = layer then a +. sf else a)
    0. (layer_times t)
