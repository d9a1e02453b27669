(** Seeded inputs.  Everything a workload feeds the program comes from
    here: size variants of the ten kernels, generated platform
    descriptions, repeat picks and the open-loop arrival schedule.  One
    seed drives all of it; each use draws from its own stream so adding
    a draw in one place never shifts another. *)

let rng ~seed ~stream = Random.State.make [| 0x5eed; seed; stream |]

(* ---- kernel size variants ------------------------------------------ *)

(** How to rescale one kernel: its length [base] (stream, batch, grid
    or image side) and the integer literals tied to it, each as an
    offset from the length.  A literal is rewritten where it is an array
    dimension ([[L]]) or a loop bound ([< L;]). *)
type scaling = { base : int; lits : (int * int) list; min_len : int }

let scalings =
  [
    ("adpcm_enc", { base = 4096; lits = [ (4096, 0) ]; min_len = 64 });
    ( "boundary_value",
      { base = 4096; lits = [ (4098, 2); (4097, 1) ]; min_len = 64 } );
    ("compress", { base = 256; lits = [ (256, 0) ]; min_len = 8 });
    ("edge_detect", { base = 258; lits = [ (258, 0); (257, -1) ]; min_len = 8 });
    ("filterbank", { base = 2048; lits = [ (2048, 0); (2112, 64) ]; min_len = 64 });
    ("fir_256", { base = 2048; lits = [ (2048, 0); (2304, 256) ]; min_len = 64 });
    ("iir_4", { base = 4096; lits = [ (4096, 0) ]; min_len = 64 });
    ("latnrm_32", { base = 4096; lits = [ (4096, 0) ]; min_len = 64 });
    ("mult_10", { base = 200; lits = [ (200, 0) ]; min_len = 8 });
    ("spectral", { base = 2048; lits = [ (2048, 0); (1920, -128) ]; min_len = 256 });
  ]

let kernels = List.map fst scalings

let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let hits = ref 0 in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string b by;
      incr hits;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  (Buffer.contents b, !hits)

(** The kernel's source with its length set to [len]. *)
let variant_source kernel ~len =
  let sc = List.assoc kernel scalings in
  let src =
    match Benchsuite.Suite.find kernel with
    | Some b -> b.Benchsuite.Suite.source
    | None -> invalid_arg ("unknown kernel " ^ kernel)
  in
  (* two passes through placeholders, so a new length that equals
     another literal of the kernel is never rewritten again *)
  let rewrite src pairs =
    List.fold_left
      (fun src (from, into) ->
        let src, h1 = replace_all ~sub:("[" ^ from ^ "]") ~by:("[" ^ into ^ "]") src in
        let src, h2 = replace_all ~sub:("< " ^ from ^ ";") ~by:("< " ^ into ^ ";") src in
        if h1 + h2 = 0 then invalid_arg (Printf.sprintf "%s: %s not found" kernel from);
        src)
      src pairs
  in
  let hole i = Printf.sprintf "#%d#" i in
  if len = sc.base then src
  else
    rewrite
      (rewrite src (List.mapi (fun i (lit, _) -> (string_of_int lit, hole i)) sc.lits))
      (List.mapi (fun i (_, off) -> (hole i, string_of_int (len + off))) sc.lits)

type variant = { kernel : string; len : int; name : string; source : string }

let variant kernel ~len =
  {
    kernel;
    len;
    name = Printf.sprintf "%s@%d" kernel len;
    source = variant_source kernel ~len;
  }

(** Length for [kernel] at scale [f] (clamped to the kernel's minimum). *)
let scaled_len kernel f =
  let sc = List.assoc kernel scalings in
  max sc.min_len (int_of_float (Float.round (float_of_int sc.base *. f)))

(** A size-variant stream: round [r] holds one variant of every kernel.
    Scales come in antithetic pairs around [centre] — round [2j+1]
    mirrors round [2j] — so the work of each pair of rounds barely
    depends on the seed, while no (kernel, length) repeats: [used]
    collects the lengths handed out and a clash is redrawn. *)
type variants = {
  st : Random.State.t;
  centre : float;
  spread : float;
  used : (string * int, unit) Hashtbl.t;
  mutable pending : float list;  (** mirrored scales for the next round *)
}

let variants ~seed ~stream ~centre ~spread =
  {
    st = rng ~seed ~stream;
    centre;
    spread;
    used = Hashtbl.create 64;
    pending = [];
  }

let fresh_len v kernel f =
  let rec go f tries =
    let len = scaled_len kernel f in
    if not (Hashtbl.mem v.used (kernel, len)) then begin
      Hashtbl.replace v.used (kernel, len) ();
      len
    end
    else
      (* nudge by one step until unused; lengths are integers *)
      let sc = List.assoc kernel scalings in
      let step = 1. /. float_of_int sc.base in
      go (f +. (if tries mod 2 = 0 then 1. else -1.) *. step *. float_of_int (tries + 1))
        (tries + 1)
  in
  go f 0

(** Next round: one fresh variant per kernel, in kernel order. *)
let next_round v =
  let scales =
    match v.pending with
    | [] ->
        let ds =
          List.map
            (fun _ -> (Random.State.float v.st 2. -. 1.) *. v.spread)
            kernels
        in
        v.pending <- List.map (fun d -> v.centre -. d) ds;
        List.map (fun d -> v.centre +. d) ds
    | mirrored ->
        v.pending <- [];
        mirrored
  in
  List.map2 (fun k f -> variant k ~len:(fresh_len v k f)) kernels scales

(* ---- generated platforms ------------------------------------------- *)

(** A platform shape: core count per class (slowest class first) and the
    rank of the main class.  Workloads cycle through every shape so the
    mix is the same in every run; the seed draws the clocks, the class
    order in the description and hence the main class's index. *)
type shape = { counts : int list; main_rank : int }

let shapes =
  List.concat_map
    (fun counts ->
      List.init (List.length counts) (fun main_rank -> { counts; main_rank }))
    [ [ 2; 2 ]; [ 1; 1; 2 ]; [ 2; 2; 2; 2 ] ]

(** Clock ladder (MHz) by rank, slowest first: platform A's 1 : 2.5 : 5
    steps, extended by a 10x class.  A platform draws one scale factor
    for all its clocks (0.8-1.25x) and a small jitter per class (±3%), so
    the seed moves absolute speeds, and with them the weight of
    communication and task creation, while the shape keeps its speed
    ratios and the quality mix stays comparable from seed to seed. *)
let ladder = [| 100.; 250.; 500.; 1000. |]

let platform_text st ~name (sh : shape) =
  let k = List.length sh.counts in
  let rung r = if k = 4 then r else if k = 3 then [| 0; 1; 3 |].(r) else [| 0; 2 |].(r) in
  let scale = exp (Random.State.float st (2. *. log 1.25) -. log 1.25) in
  let classes =
    List.mapi
      (fun r count ->
        let jitter = 0.97 +. Random.State.float st 0.06 in
        let freq = int_of_float (Float.round (ladder.(rung r) *. scale *. jitter)) in
        (r, Printf.sprintf "c%d" r, freq, count))
      sh.counts
  in
  (* seeded class order: the main class lands at a seeded index *)
  let keyed = List.map (fun c -> (Random.State.bits st, c)) classes in
  let ordered = List.map snd (List.sort compare keyed) in
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "platform %s\n" name);
  List.iter
    (fun (r, cname, freq, count) ->
      Buffer.add_string b
        (Printf.sprintf "class %s freq %d count %d%s\n" cname freq count
           (if r = sh.main_rank then " main" else "")))
    ordered;
  Buffer.contents b

(** Platform description texts, cycling through {!shapes}.  A
    description already handed out (its name aside) is drawn again, so
    no (kernel, platform) pair repeats within a run. *)
let platforms ~seed ~stream =
  let st = rng ~seed ~stream in
  let seen = Hashtbl.create 64 in
  let i = ref 0 in
  fun () ->
    let sh = List.nth shapes (!i mod List.length shapes) in
    let rec draw () =
      let text = platform_text st ~name:(Printf.sprintf "gen-%d-%d" seed !i) sh in
      let nl = String.index text '\n' in
      let body = String.sub text nl (String.length text - nl) in
      if Hashtbl.mem seen body then draw ()
      else begin
        Hashtbl.replace seen body ();
        text
      end
    in
    let text = draw () in
    incr i;
    text

let parse_platform text =
  match Platform.Parse.of_string_result text with
  | Ok p -> p
  | Error e -> failwith ("generated platform rejected: " ^ Mpsoc_error.to_string e)

(* ---- open-loop schedule -------------------------------------------- *)

(** [n] sorted uniform due times over [0, duration): a Poisson process
    conditioned on its count. *)
let arrivals st ~n ~duration =
  let a = Array.init n (fun _ -> Random.State.float st duration) in
  Array.sort compare a;
  a

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
