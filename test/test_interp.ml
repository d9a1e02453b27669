(* Tests for the profiling interpreter: computed values, execution counts,
   work attribution, and error behaviour. *)

open Minic
open Interp

let run src = Eval.run (Frontend.compile src)

let ret_int src =
  match (run src).Eval.ret with
  | Some v -> Value.to_int v
  | None -> Alcotest.fail "program returned no value"

let test_arith () =
  Alcotest.(check int) "arith" 7 (ret_int "int main() { return 1 + 2 * 3; }")

let test_float_math () =
  let r =
    run
      "int main() { float x; x = sqrt(16.0) + fabs(0.0 - 2.0); return (int) x; }"
  in
  Alcotest.(check int) "sqrt+fabs" 6 (Value.to_int (Option.get r.Eval.ret))

let test_loop_sum () =
  let src =
    "int main() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; }"
  in
  Alcotest.(check int) "sum 0..9" 45 (ret_int src)

let test_while_loop () =
  let src =
    "int main() { int i; int s; i = 0; s = 0; while (i < 5) { s = s + 2; i = i + 1; } return s; }"
  in
  Alcotest.(check int) "while" 10 (ret_int src)

let test_array_2d () =
  let src =
    {|
float m[3][3];
int main() {
  int i;
  int j;
  float tr;
  for (i = 0; i < 3; i = i + 1) {
    for (j = 0; j < 3; j = j + 1) {
      m[i][j] = i * 3 + j;
    }
  }
  tr = m[0][0] + m[1][1] + m[2][2];
  return (int) tr;
}
|}
  in
  Alcotest.(check int) "trace" 12 (ret_int src)

let test_function_call_value () =
  let src =
    {|
int square(int x) { int r; r = x * x; return r; }
int main() { int y; y = square(7); return y; }
|}
  in
  Alcotest.(check int) "square via inline" 49 (ret_int src)

let test_shadowing_scopes () =
  let src =
    {|
int main() {
  int x;
  int y;
  x = 1;
  y = 0;
  if (x) {
    int s;
    s = 10;
    y = s;
  }
  return y + x;
}
|}
  in
  Alcotest.(check int) "scoped decl" 11 (ret_int src)

let test_div_by_zero () =
  match run "int main() { int x; x = 1 / 0; return x; }" with
  | exception Eval.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected runtime error"

let test_oob_index () =
  match run "float a[4];\nint main() { a[9] = 1.0; return 0; }" with
  | exception Eval.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected bounds error"

let test_step_limit () =
  let src = "int main() { int i; i = 0; while (1) { i = i + 1; } return i; }" in
  match Eval.run ~max_steps:10_000 (Frontend.compile src) with
  | exception Eval.Step_limit_exceeded _ -> ()
  | _ -> Alcotest.fail "expected step limit"

(* profile: loop body statement executes exactly N times *)
let test_profile_counts () =
  let prog =
    Frontend.compile
      "int main() { int i; int s; s = 0; for (i = 0; i < 17; i = i + 1) { s = s + i; } return s; }"
  in
  let r = Eval.run prog in
  (* find the body assignment's sid: the statement 's = s + i' *)
  let body_sid = ref (-1) in
  ignore
    (Ast.fold_stmts
       (fun () s ->
         match s.Ast.sdesc with
         | Ast.Assign (Ast.LVar "s", Ast.Binop (Ast.Add, Ast.Var "s", Ast.Var "i"))
           ->
             body_sid := s.Ast.sid
         | _ -> ())
       ()
       (List.hd prog.Ast.funcs).Ast.fbody);
  Alcotest.(check bool) "found body stmt" true (!body_sid >= 0);
  Alcotest.(check int) "body executed 17 times" 17
    (Profile.count r.Eval.profile !body_sid)

(* work is monotone in iteration count *)
let test_profile_work_monotone () =
  let total n =
    let prog =
      Frontend.compile
        (Printf.sprintf
           "int main() { int i; int s; s = 0; for (i = 0; i < %d; i = i + 1) { s = s + i; } return s; }"
           n)
    in
    (Eval.run prog).Eval.profile.Profile.total_work
  in
  let w10 = total 10 and w100 = total 100 in
  Alcotest.(check bool) "more iterations, more work" true (w100 > w10 *. 5.)

(* determinism: same program, same profile *)
let test_determinism () =
  let src =
    "int main() { int i; int s; s = 0; for (i = 0; i < 50; i = i + 1) { s = s + i * i; } return s; }"
  in
  let r1 = run src and r2 = run src in
  Alcotest.(check bool) "same total work" true
    (r1.Eval.profile.Profile.total_work = r2.Eval.profile.Profile.total_work);
  Alcotest.(check int) "same result" (Value.to_int (Option.get r1.Eval.ret))
    (Value.to_int (Option.get r2.Eval.ret))

(* int/float conversion on assignment preserves declared type *)
let test_int_float_conversion () =
  Alcotest.(check int) "float truncated into int" 3
    (ret_int "int main() { int x; x = 3.9; return x; }")

let test_global_init () =
  Alcotest.(check int) "global initializer" 5
    (ret_int "int g = 5;\nint main() { return g; }")

let suite =
  [
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "float math builtins" `Quick test_float_math;
    Alcotest.test_case "for loop sum" `Quick test_loop_sum;
    Alcotest.test_case "while loop" `Quick test_while_loop;
    Alcotest.test_case "2d arrays" `Quick test_array_2d;
    Alcotest.test_case "inlined call value" `Quick test_function_call_value;
    Alcotest.test_case "block scoping" `Quick test_shadowing_scopes;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero;
    Alcotest.test_case "out of bounds" `Quick test_oob_index;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "profile counts" `Quick test_profile_counts;
    Alcotest.test_case "profile work monotone" `Quick test_profile_work_monotone;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "int/float conversion" `Quick test_int_float_conversion;
    Alcotest.test_case "global initializer" `Quick test_global_init;
  ]

(* ------------------------------------------------------------------ *)
(* Additional interpreter semantics                                    *)
(* ------------------------------------------------------------------ *)

let test_bitwise_ops () =
  Alcotest.(check int) "and/or/xor/shift" ((12 land 10) + (12 lor 10) + (12 lxor 10) + (3 lsl 2))
    (ret_int
       "int main() { return (12 & 10) + (12 | 10) + (12 ^ 10) + (3 << 2); }")

let test_mod_and_neg () =
  Alcotest.(check int) "modulo" (17 mod 5) (ret_int "int main() { return 17 % 5; }");
  Alcotest.(check int) "negation" (-7) (ret_int "int main() { return -7; }")

let test_logical_short_circuit_semantics () =
  (* both operands evaluate (no short-circuit in Mini-C), but the result
     must still be correct *)
  Alcotest.(check int) "and" 0 (ret_int "int main() { return 1 && 0; }");
  Alcotest.(check int) "or" 1 (ret_int "int main() { return 0 || 3; }")

let test_comparison_floats () =
  Alcotest.(check int) "float compare" 1
    (ret_int "int main() { return 1.5 < 2.5; }")

let test_builtin_pow_floor () =
  Alcotest.(check int) "pow" 8 (ret_int "int main() { return (int) pow(2.0, 3.0); }");
  Alcotest.(check int) "floor" 3 (ret_int "int main() { return (int) floor(3.9); }");
  Alcotest.(check int) "imin/imax" 7
    (ret_int "int main() { return imin(3, 9) + imax(1, 4); }")

let test_while_never_entered () =
  Alcotest.(check int) "zero-trip while" 5
    (ret_int "int main() { int x; x = 5; while (x < 0) { x = x + 1; } return x; }")

let test_for_zero_trip () =
  let prog =
    Frontend.compile
      "int main() { int i; int s; s = 0; for (i = 10; i < 5; i = i + 1) { s = s + 1; } return s; }"
  in
  let r = Eval.run prog in
  Alcotest.(check int) "zero-trip for" 0 (Value.to_int (Option.get r.Eval.ret))

let test_decl_reinit_per_iteration () =
  (* a declaration inside a loop body re-initializes every iteration *)
  let src =
    "int main() { int i; int s; s = 0; for (i = 0; i < 4; i = i + 1) { int t; t = t + 1; s = s + t; } return s; }"
  in
  (* t is zero-initialized each iteration, so t = 1 every time: s = 4 *)
  Alcotest.(check int) "decl reinit" 4 (ret_int src)

let test_flat_index_layout () =
  (* row-major layout: m[1][2] of a 3x4 array is offset 6 *)
  Alcotest.(check int) "flat index" 6
    (Value.flat_index ~dims:[ 3; 4 ] ~idxs:[ 1; 2 ]);
  match Value.flat_index ~dims:[ 3; 4 ] ~idxs:[ 3; 0 ] with
  | exception Value.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected bounds error"

let test_profile_if_counts_both_arms () =
  let src =
    {|int main() {
  int i;
  int a;
  int b;
  a = 0;
  b = 0;
  for (i = 0; i < 10; i = i + 1) {
    if (i % 2 == 0) { a = a + 1; } else { b = b + 1; }
  }
  return a * 10 + b;
}|}
  in
  Alcotest.(check int) "arms balanced" 55 (ret_int src)

(* ------------------------------------------------------------------ *)
(* C semantics the flat store and dynamic typing used to get wrong      *)
(* ------------------------------------------------------------------ *)

(* sid of the first statement satisfying [p] in main *)
let find_sid prog p =
  match
    Ast.fold_stmts
      (fun acc (s : Ast.stmt) -> match acc with None when p s.Ast.sdesc -> Some s.Ast.sid | _ -> acc)
      None (List.hd prog.Ast.funcs).Ast.fbody
  with
  | Some sid -> sid
  | None -> Alcotest.fail "statement not found"

let test_global_init_converts () =
  let prog = Frontend.compile "int g = 2.5;\nint main() { int r; r = g * 3; return r; }" in
  let r = Eval.run prog in
  Alcotest.(check int) "int global truncates its initializer" 6
    (Value.to_int (Option.get r.Eval.ret));
  let sid = find_sid prog (function Ast.Assign (Ast.LVar "r", _) -> true | _ -> false) in
  (* var read 1 + literal 0.5 + int multiply 3 + scalar store 1 *)
  Alcotest.(check (float 0.)) "g * 3 is an int multiply" 5.5 (Profile.work r.Eval.profile sid)

let test_inner_decl_keeps_outer () =
  Alcotest.(check int) "inner i leaves the outer i" 5
    (ret_int "int main() { int i; i = 5; { int i; i = 0; } return i; }");
  Alcotest.(check int) "inner float x leaves the outer int x" 7
    (ret_int
       "int main() { int x; float r; x = 7; { float x; x = 0.5; r = x; } return x; }");
  Alcotest.(check int) "a local shadows a global" 3
    (ret_int "int g = 3;\nint main() { int s; { int g; g = 10; s = g; } return g; }");
  Alcotest.(check int) "sibling scopes of two types" 12
    (ret_int
       "int main() { int r; r = 0; { int m; m = 4; r = r + m; } { float m; m = 8.5; r = \
        r + m; } return r; }")

let test_float_conditions () =
  Alcotest.(check int) "if (0.5) takes the then arm" 1
    (ret_int
       "int main() { float h; int r; h = 0.5; if (h) { r = 1; } else { r = 2; } return r; }");
  Alcotest.(check int) "while (h) runs until h is 0" 4
    (ret_int
       "int main() { float h; int n; h = 1.0; n = 0; while (h) { h = h - 0.25; n = n + 1; \
        } return n; }");
  Alcotest.(check int) "for with a float condition" 2
    (ret_int
       "int main() { float h; int n; n = 0; for (h = 0.5; h; h = h - 0.25) { n = n + 1; } \
        return n; }");
  Alcotest.(check int) "!0.5" 0 (ret_int "int main() { return !0.5; }");
  Alcotest.(check int) "!0.0" 1 (ret_int "int main() { return !0.0; }");
  Alcotest.(check int) "0.5 && 1.0" 1
    (ret_int "int main() { float h; h = 0.5; return h && 1.0; }");
  Alcotest.(check int) "0.0 || 0.5" 1
    (ret_int "int main() { float h; h = 0.5; return 0.0 || h; }");
  Alcotest.(check int) "0.5 && 0" 0 (ret_int "int main() { return 0.5 && 0; }");
  let prog = Frontend.compile "int main() { float h; h = 0.5; return h && 1.0; }" in
  let r = Eval.run prog in
  let sid = find_sid prog (function Ast.Return _ -> true | _ -> false) in
  (* var read 1 + literal 0.5 + float && 2 *)
  Alcotest.(check (float 0.)) "float && costs 2 cycles" 3.5 (Profile.work r.Eval.profile sid)

let test_array_nd () =
  let src =
    {|int m[2][3][4];
int main() {
  int i; int j; int k;
  for (i = 0; i < 2; i = i + 1) {
    for (j = 0; j < 3; j = j + 1) {
      for (k = 0; k < 4; k = k + 1) { m[i][j][k] = i * 100 + j * 10 + k; }
    }
  }
  return m[1][2][3] + m[0][1][2];
}|}
  in
  Alcotest.(check int) "row-major 3d" (123 + 12) (ret_int src);
  Alcotest.(check int) "4d" 7
    (ret_int
       "int q[2][3][2][2];\nint main() { q[1][2][0][1] = 7; q[1][1][1][1] = 9; return \
        q[1][2][0][1]; }");
  match run "int m[2][3][4];\nint main() { int i; i = 3; return m[1][i][0]; }" with
  | exception Eval.Runtime_error m ->
      Alcotest.(check string) "middle index checked"
        "array index 3 out of bounds for dimension of size 3" m
  | _ -> Alcotest.fail "expected bounds error"

(* The slot store behind the runtime: an absent slot is an unbound
   variable, and the name-keyed API reads and writes the same slots the
   compiled code does. *)
let test_slot_store () =
  let prog = Frontend.compile "int main() { int x; int y; y = x + 1; return y; }" in
  let main = List.hd prog.Ast.funcs in
  let code = Eval.compile ~globals:prog.Ast.globals main.Ast.fbody in
  let stmt = List.nth main.Ast.fbody 2 in
  let env_of store =
    Eval.make_env ~profile:(Profile.create (Eval.profile_slots prog)) store
  in
  (match Eval.exec_stmts (env_of (Eval.new_store code)) [ stmt ] with
  | exception Eval.Runtime_error m ->
      Alcotest.(check string) "absent slot" "unbound variable x" m
  | () -> Alcotest.fail "expected an unbound variable");
  let store = Eval.new_store code in
  Eval.set store "x" (Value.VInt 41);
  Alcotest.(check bool) "y absent" false (Eval.mem store "y");
  (match Eval.exec_stmts (env_of store) [ stmt ] with
  | exception Eval.Runtime_error m ->
      Alcotest.(check string) "absent target" "unbound variable y" m
  | () -> Alcotest.fail "expected an unbound variable");
  Eval.set store "y" (Value.VInt 0);
  Eval.exec_stmts (env_of store) [ stmt ];
  Alcotest.(check bool) "y = 42" true (Eval.find store "y" = Some (Value.VInt 42));
  let seen = ref [] in
  Eval.iter (fun n _ -> seen := n :: !seen) store;
  Alcotest.(check (list string)) "bound names" [ "x"; "y" ] (List.rev !seen);
  match Eval.set store "x" (Value.VFloat 1.) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a float must not land in an int slot"

let suite =
  suite
  @ [
      Alcotest.test_case "global initializer converts" `Quick test_global_init_converts;
      Alcotest.test_case "inner declaration keeps outer" `Quick
        test_inner_decl_keeps_outer;
      Alcotest.test_case "float conditions" `Quick test_float_conditions;
      Alcotest.test_case "3d and 4d arrays" `Quick test_array_nd;
      Alcotest.test_case "slot store" `Quick test_slot_store;
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "bitwise ops" `Quick test_bitwise_ops;
      Alcotest.test_case "mod and neg" `Quick test_mod_and_neg;
      Alcotest.test_case "logical ops" `Quick test_logical_short_circuit_semantics;
      Alcotest.test_case "float compare" `Quick test_comparison_floats;
      Alcotest.test_case "pow/floor/imin/imax" `Quick test_builtin_pow_floor;
      Alcotest.test_case "zero-trip while" `Quick test_while_never_entered;
      Alcotest.test_case "zero-trip for" `Quick test_for_zero_trip;
      Alcotest.test_case "decl reinit per iteration" `Quick
        test_decl_reinit_per_iteration;
      Alcotest.test_case "flat index layout" `Quick test_flat_index_layout;
      Alcotest.test_case "if arms counted" `Quick test_profile_if_counts_both_arms;
    ]
