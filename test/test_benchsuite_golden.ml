(* Golden checksums of the benchmark programs, as computed by the
   profiling interpreter.  Regenerate with
   [dune exec bin/mpsoc_par.exe -- analyze <file>] if a benchmark source
   is intentionally changed. *)

let checksums =
  [
    ("adpcm_enc", 3476);
    ("boundary_value", -51);
    ("compress", 164);
    ("edge_detect", 3023);
    ("filterbank", 3009);
    ("fir_256", -433);
    ("iir_4", 0);
    ("latnrm_32", 5537);
    ("mult_10", 779);
    ("spectral", 130770);
  ]

(* Per kernel: interpreted steps and the MD5 of the profile (counts, IEEE
   bits of work and total_work), as [Test_benchsuite.profile_md5] hashes
   it.  A change here means cost attribution changed: say why. *)
let profiles =
  [
    ("adpcm_enc", 380061, "93adb6cfef72d958ce5424162d4dd7f7");
    ("boundary_value", 832273, "7eaae226e3a99953b226c567f31c0e77");
    ("compress", 886278, "26e8e9c0c1e2773b0a79732196bd7ce0");
    ("edge_detect", 726649, "6add69b128926051844250716410f9ea");
    ("filterbank", 2264519, "7927de26d7dc2fcc273b64bf759235cd");
    ("fir_256", 1070607, "2d7cb95e0e4f346aeb47e570edf367a4");
    ("iir_4", 1050878, "b7ef840f41a3d3a25253127ceebf2f00");
    ("latnrm_32", 852667, "82359b05f1f1f4288130de7e93f26d40");
    ("mult_10", 618212, "c9569e6051460b1384efacd2e7f99474");
    ("spectral", 584220, "3d804bc61b0ba1acfb7e3140cdd3d81a");
  ]

(* [Test_benchsuite.test_generated_fingerprint]: the first 50 programs of
   [Test_pipeline_prop.gen_program] from seed 2013. *)
let generated_fingerprint = "53e5ca874ad13344f22489284de48896"
