(** Small helpers: clocks, order statistics, process memory and the
    result line's JSON. *)

let now = Unix.gettimeofday

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let j = min (Array.length a - 1) (i + 1) in
      let w = pos -. float_of_int i in
      (a.(i) *. (1. -. w)) +. (a.(j) *. w)

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

(** Peak resident set (VmHWM) of [pid] in MB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ---- child processes ------------------------------------------------ *)

(** Children still running; killed and reaped at exit, so a run that
    stops early leaves no process behind. *)
let live_children : int list ref = ref []

let forget_child pid = live_children := List.filter (( <> ) pid) !live_children

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_children;
  live_children := []

let () = at_exit kill_children

(* ---- host speed ------------------------------------------------------ *)

(** A resident 16 MB matrix, larger than a core's L2 cache. *)
let tableau =
  lazy
    (Array.init 2048 (fun i ->
         Array.init 1024 (fun j -> float_of_int (((i * 7) + (j * 13)) land 63) +. 1.)))

let pivots = ref 0

(** This host's speed drifts by tens of percent over minutes, and by
    core, as other tenants load the caches and the memory system.  A
    fixed unit of work written here — it uses none of the program's
    code — is timed between ops and set-ups, and the in-process
    wall-time metrics are scaled by how fast it ran against
    {!reference_rate}.  The unit does both kinds of work the program
    does, in about equal time: it allocates and hashes like the
    interpreter and the heuristics, then makes a pivot-like pass over
    {!tableau} like the ILP's simplex over its tableau.  A pure compute
    loop stays flat while the workloads slow down; this unit slows with
    them. *)
let calibration_unit () =
  let t0 = now () in
  let a = Array.make 4096 1.0 in
  let h = Hashtbl.create 1024 in
  for r = 0 to 39 do
    for i = 1 to 4095 do
      a.(i) <- (a.(i - 1) *. 0.999) +. float_of_int (i land r)
    done;
    for i = 0 to 255 do
      Hashtbl.replace h (((i * 31) + r) land 1023) (string_of_int i)
    done
  done;
  ignore (Sys.opaque_identity (a, h));
  (* half the rows (8 MB), alternating; a convex update keeps every
     entry within its first range, [1, 64] *)
  let m = Lazy.force tableau in
  incr pivots;
  let pr = m.(!pivots * 31 mod Array.length m) in
  Array.iteri
    (fun i r ->
      if (i + !pivots) land 1 = 0 && r != pr then
        for j = 0 to Array.length r - 1 do
          r.(j) <- (0.999 *. r.(j)) +. (0.001 *. pr.(j))
        done)
    m;
  now () -. t0

(** The reference host's rate in units per second: a round figure near
    this host's usual rate.  It sets the scale of the scaled metrics and
    nothing else. *)
let reference_rate = 200.

(** The calibrator's side: each request line holds a time budget in
    seconds; run units until the budget is spent (at least one) and
    answer ["units seconds"].  Ends at end of input.  A fresh process
    runs its first units slowly while its heap grows, so it warms up
    for a tenth of a second before answering. *)
let calibrator_main () =
  let t0 = now () in
  while now () -. t0 < 0.1 do
    ignore (calibration_unit ())
  done;
  match
    while true do
      let budget = float_of_string (input_line stdin) in
      let units = ref 0 and spent = ref 0. in
      while !spent < budget || !units = 0 do
        spent := !spent +. calibration_unit ();
        incr units
      done;
      Printf.printf "%d %.9f\n%!" !units !spent
    done
  with
  | () -> ()
  | exception End_of_file -> ()

(** The units run in a child process — this executable started with
    [--calibrate] — so the program's heap and garbage collector never
    share the unit's process: a change that grows the program's heap
    cannot move the divisor.  The child inherits the benchmark's CPU
    affinity, and the benchmark waits while it runs, so both run on the
    same core, one after the other. *)
type calibrator = { pid : int; req : out_channel; resp : in_channel }

let calibrator () =
  let child_in, req = Unix.pipe ~cloexec:true () in
  let resp, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--calibrate" |]
      child_in child_out Unix.stderr
  in
  live_children := pid :: !live_children;
  Unix.close child_in;
  Unix.close child_out;
  { pid; req = Unix.out_channel_of_descr req; resp = Unix.in_channel_of_descr resp }

(** Close the request pipe (the child ends) and reap the child. *)
let stop_calibrator c =
  close_out_noerr c.req;
  (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
  close_in_noerr c.resp;
  forget_child c.pid

(** Calibration units run and the seconds they took. *)
type sample = { units : int; time_s : float }

(** Run calibration units for about [seconds] (at least one). *)
let sample c ~seconds =
  Printf.fprintf c.req "%.9f\n%!" seconds;
  Scanf.sscanf (input_line c.resp) "%d %f" (fun units time_s -> { units; time_s })

(** Host speed over [samples] against the reference: above 1 on a faster
    host.  A time [t] measured between these samples corresponds to
    [t *. host_speed samples] on the reference host. *)
let host_speed samples =
  let units = List.fold_left (fun a s -> a + s.units) 0 samples in
  let time_s = List.fold_left (fun a s -> a +. s.time_s) 0. samples in
  if units = 0 then 1. else float_of_int units /. time_s /. reference_rate

(** A stopwatch whose every reading is bracketed by calibration samples:
    one before it (the previous reading's) and one after it, for [share]
    of the time just measured.  Each reading is scaled by the host speed
    of its own bracket, so a slow spell of the host is corrected where
    it happened. *)
type stopwatch = { cal : calibrator; share : float; mutable prev : sample }

let stopwatch cal ~share = { cal; share; prev = sample cal ~seconds:0.1 }

(** [f ()], its wall time and that time scaled to the reference host. *)
let timed sw f =
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  let after = sample sw.cal ~seconds:(sw.share *. dt) in
  let hs = host_speed [ sw.prev; after ] in
  sw.prev <- after;
  (v, dt, dt *. hs)

(** One fingerprint of every (input, solution digest) pair of a run, so
    two runs' per-input digests compare at a glance. *)
let digests_md5 (tbl : (string, string) Hashtbl.t) =
  Hashtbl.fold (fun k v acc -> (k ^ "=" ^ v) :: acc) tbl []
  |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* ---- JSON output ---------------------------------------------------- *)

(** Output JSON: like [Trace_json.t], but numbers keep every digit. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Num _ -> Buffer.add_string b "null"
  | Str s -> Buffer.add_string b (Trace_json.to_string (Trace_json.Str s))
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b (Str k);
          Buffer.add_string b ": ";
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let json_string v =
  let b = Buffer.create 1024 in
  to_buffer b v;
  Buffer.contents b

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
