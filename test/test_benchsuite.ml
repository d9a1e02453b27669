(* Tests for the benchmark suite: every program compiles, type-checks,
   runs deterministically to a stable checksum, and exposes the dependence
   structure (DOALL loops) its UTDSP counterpart has. *)

(* golden checksums: computed once, pinned to detect accidental changes to
   benchmark sources or interpreter semantics *)
let golden_checksums = Test_benchsuite_golden.checksums

let run_bench (b : Benchsuite.Suite.t) =
  let prog = Benchsuite.Suite.compile b in
  Interp.Eval.run prog

let test_all_compile () =
  List.iter
    (fun (b : Benchsuite.Suite.t) ->
      match Minic.Frontend.compile_result b.Benchsuite.Suite.source with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s: %s" b.Benchsuite.Suite.name
            (Minic.Frontend.error_to_string e))
    Benchsuite.Suite.all

let test_names_unique () =
  let names = Benchsuite.Suite.names in
  Alcotest.(check int) "10 benchmarks" 10 (List.length names);
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_find () =
  Alcotest.(check bool) "find existing" true
    (Option.is_some (Benchsuite.Suite.find "fir_256"));
  Alcotest.(check bool) "find missing" true
    (Option.is_none (Benchsuite.Suite.find "nope"))

let test_checksums () =
  List.iter
    (fun (b : Benchsuite.Suite.t) ->
      let r = run_bench b in
      let chk =
        match r.Interp.Eval.ret with
        | Some v -> Interp.Value.to_int v
        | None -> Alcotest.failf "%s returned nothing" b.Benchsuite.Suite.name
      in
      match List.assoc_opt b.Benchsuite.Suite.name golden_checksums with
      | Some expected ->
          Alcotest.(check int)
            (b.Benchsuite.Suite.name ^ " checksum")
            expected chk
      | None -> Alcotest.failf "no golden checksum for %s" b.Benchsuite.Suite.name)
    Benchsuite.Suite.all

let test_determinism () =
  List.iter
    (fun (b : Benchsuite.Suite.t) ->
      let r1 = run_bench b and r2 = run_bench b in
      Alcotest.(check bool)
        (b.Benchsuite.Suite.name ^ " deterministic work")
        true
        (r1.Interp.Eval.profile.Interp.Profile.total_work
        = r2.Interp.Eval.profile.Interp.Profile.total_work))
    Benchsuite.Suite.all

let doall_count (b : Benchsuite.Suite.t) =
  let prog = Benchsuite.Suite.compile b in
  let profile = (Interp.Eval.run prog).Interp.Eval.profile in
  let root = Htg.Build.build prog profile in
  let n = ref 0 in
  let rec go (node : Htg.Node.t) =
    if Htg.Node.is_doall node then incr n;
    Array.iter go node.Htg.Node.children
  in
  go root;
  !n

let test_doall_structure () =
  (* every benchmark exposes at least one DOALL loop (even latnrm has its
     windowing/normalization stages) *)
  List.iter
    (fun (b : Benchsuite.Suite.t) ->
      Alcotest.(check bool)
        (b.Benchsuite.Suite.name ^ " has doall loops")
        true
        (doall_count b >= 1))
    Benchsuite.Suite.all

let test_work_magnitude () =
  (* each benchmark must be heavy enough that task overheads don't dominate
     (>= 1M abstract cycles) but small enough to keep runs fast *)
  List.iter
    (fun (b : Benchsuite.Suite.t) ->
      let r = run_bench b in
      let w = r.Interp.Eval.profile.Interp.Profile.total_work in
      Alcotest.(check bool)
        (Printf.sprintf "%s work %.0f in range" b.Benchsuite.Suite.name w)
        true
        (w >= 1e6 && w <= 1e9))
    Benchsuite.Suite.all

let test_adpcm_channel_loop_doall () =
  (* the channel loop must be DOALL despite the sequential inner encoder *)
  let b = Option.get (Benchsuite.Suite.find "adpcm_enc") in
  Alcotest.(check bool) "adpcm has >= 2 doall loops" true (doall_count b >= 2)

let test_latnrm_lattice_sequential () =
  (* the lattice sample loop must NOT be doall *)
  let b = Option.get (Benchsuite.Suite.find "latnrm_32") in
  let prog = Benchsuite.Suite.compile b in
  let profile = (Interp.Eval.run prog).Interp.Eval.profile in
  let root = Htg.Build.build prog profile in
  let seq_loops = ref 0 in
  let rec go (node : Htg.Node.t) =
    (match node.Htg.Node.kind with
    | Htg.Node.Loop l ->
        if (not l.doall) && l.iters_per_entry > 1000. then
          incr seq_loops
    | _ -> ());
    Array.iter go node.Htg.Node.children
  in
  go root;
  Alcotest.(check bool) "large sequential loop exists" true (!seq_loops >= 1)

(* Profiles pinned bit for bit.  The checksums above pin only return
   values, so a change in cost attribution or float association would pass
   them silently; these goldens pin each kernel's step count and an MD5
   over its per-statement counts, the IEEE bits of its per-statement work
   and of total_work. *)
let profile_md5 (p : Interp.Profile.t) =
  let b = Buffer.create 4096 in
  Array.iter (fun c -> Buffer.add_int64_le b (Int64.of_int c)) p.Interp.Profile.counts;
  Array.iter
    (fun w -> Buffer.add_int64_le b (Int64.bits_of_float w))
    p.Interp.Profile.work;
  Buffer.add_int64_le b (Int64.bits_of_float p.Interp.Profile.total_work);
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_profiles = Test_benchsuite_golden.profiles

let test_profile_goldens () =
  let actual =
    List.map
      (fun (b : Benchsuite.Suite.t) ->
        let r = run_bench b in
        (b.Benchsuite.Suite.name, r.Interp.Eval.steps, profile_md5 r.Interp.Eval.profile))
      Benchsuite.Suite.all
  in
  Alcotest.(check (list (triple string int string)))
    "steps and profile MD5 per kernel" golden_profiles actual

(* One fingerprint over the first 50 programs of the property tests'
   generator from a fixed seed: return value, steps and profile of each. *)
let test_generated_fingerprint () =
  let rand = Random.State.make [| 2013 |] in
  let b = Buffer.create 4096 in
  for _ = 1 to 50 do
    let r = Interp.Eval.run (Minic.Frontend.compile (Test_pipeline_prop.gen_program rand)) in
    let ret =
      match r.Interp.Eval.ret with
      | Some (Interp.Value.VInt n) -> "i" ^ string_of_int n
      | Some (Interp.Value.VFloat f) -> "f" ^ Int64.to_string (Int64.bits_of_float f)
      | Some _ | None -> "-"
    in
    Printf.bprintf b "%s %d %s\n" ret r.Interp.Eval.steps (profile_md5 r.Interp.Eval.profile)
  done;
  Alcotest.(check string) "fingerprint of 50 generated programs"
    Test_benchsuite_golden.generated_fingerprint
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let suite =
  [
    Alcotest.test_case "all compile" `Quick test_all_compile;
    Alcotest.test_case "names unique" `Quick test_names_unique;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "golden checksums" `Quick test_checksums;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "profile goldens" `Quick test_profile_goldens;
    Alcotest.test_case "generated-program fingerprint" `Quick
      test_generated_fingerprint;
    Alcotest.test_case "doall structure" `Quick test_doall_structure;
    Alcotest.test_case "work magnitude" `Quick test_work_magnitude;
    Alcotest.test_case "adpcm channel loop doall" `Quick
      test_adpcm_channel_loop_doall;
    Alcotest.test_case "latnrm lattice sequential" `Quick
      test_latnrm_lattice_sequential;
  ]
