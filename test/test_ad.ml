(* Tests for the AD substrate: reverse tape, forward duals, the
   dependence sweep, integer taint, finite differences, and cross-engine
   agreement. *)

open Scvad_ad

let close ?(eps = 1e-9) msg expected got =
  let scale = Stdlib.max 1. (Stdlib.abs_float expected) in
  if Stdlib.abs_float (expected -. got) > eps *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected got

(* ------------------------------------------------------------------ *)
(* Reverse mode: closed-form derivative checks                         *)
(* ------------------------------------------------------------------ *)

let with_reverse f =
  let tape = Tape.create () in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  f tape (module S : Scalar.S with type t = Reverse.t)

let test_reverse_square () =
  with_reverse (fun tape (module S) ->
      let x = Reverse.var tape 3. in
      let y = S.(x *. x) in
      let g = Reverse.backward tape y in
      close "value" 9. (Reverse.value y);
      close "d(x^2)/dx" 6. (Reverse.grad g x))

let test_reverse_two_vars () =
  with_reverse (fun tape (module S) ->
      (* f = (x + y) * a * x  with a constant, as in the paper's Fig. 1 *)
      let a = S.of_float 2.5 in
      let x = Reverse.var tape 3. in
      let y = Reverse.var tape 4. in
      let f = S.((x +. y) *. a *. x) in
      let g = Reverse.backward tape f in
      close "f" (7. *. 2.5 *. 3.) (Reverse.value f);
      (* df/dx = a*(2x + y), df/dy = a*x *)
      close "df/dx" (2.5 *. 10.) (Reverse.grad g x);
      close "df/dy" (2.5 *. 3.) (Reverse.grad g y))

let test_reverse_division_chain () =
  with_reverse (fun tape (module S) ->
      let x = Reverse.var tape 2. in
      let y = Reverse.var tape 5. in
      let f = S.(x /. y +. (y /. x)) in
      let g = Reverse.backward tape f in
      (* df/dx = 1/y - y/x^2 ; df/dy = -x/y^2 + 1/x *)
      close "df/dx" ((1. /. 5.) -. (5. /. 4.)) (Reverse.grad g x);
      close "df/dy" ((-2. /. 25.) +. 0.5) (Reverse.grad g y))

let test_reverse_transcendental () =
  with_reverse (fun tape (module S) ->
      let x = Reverse.var tape 0.7 in
      let f = S.(exp (sin x) +. log (sqrt x)) in
      let g = Reverse.backward tape f in
      let expected = (cos 0.7 *. exp (sin 0.7)) +. (0.5 /. 0.7) in
      close "df/dx" expected (Reverse.grad g x))

let test_reverse_fanout () =
  (* One variable used many times: adjoints must accumulate. *)
  with_reverse (fun tape (module S) ->
      let x = Reverse.var tape 1.5 in
      let acc = ref S.zero in
      for _ = 1 to 10 do
        acc := S.(!acc +. (x *. x))
      done;
      let g = Reverse.backward tape !acc in
      close "d(10 x^2)/dx" 30. (Reverse.grad g x))

let test_constant_folding () =
  let tape = Tape.create () in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  (* A pure-constant computation must record nothing. *)
  let acc = ref S.zero in
  for i = 1 to 1000 do
    acc := S.(!acc +. (of_int i *. of_float 0.5) /. of_float 3.)
  done;
  Alcotest.(check int) "tape stays empty" 0 (Tape.length tape);
  (* Lifting one variable starts recording. *)
  let x = Reverse.var tape 1. in
  let _ = S.(x +. !acc) in
  Alcotest.(check bool) "tape grows after lift" true (Tape.length tape > 1)

let test_reverse_zero_partial () =
  (* Multiplication by literal zero: connected in the graph, but the
     paper's criterion (derivative = 0) marks it uncritical. *)
  with_reverse (fun tape (module S) ->
      let x = Reverse.var tape 7. in
      let y = Reverse.var tape 8. in
      let f = S.((x *. zero) +. y) in
      let g = Reverse.backward tape f in
      close "df/dx = 0 through *0" 0. (Reverse.grad g x);
      close "df/dy" 1. (Reverse.grad g y))

let test_reverse_constant_output () =
  with_reverse (fun tape (module S) ->
      let x = Reverse.var tape 7. in
      ignore x;
      let out = S.(of_float 2. *. of_float 3.) in
      let g = Reverse.backward tape out in
      close "grad w.r.t. unused var" 0. (Reverse.grad g x))

let test_reverse_node_after_output () =
  with_reverse (fun tape (module S) ->
      let x = Reverse.var tape 2. in
      let out = S.(x *. x) in
      let late = Reverse.var tape 9. in
      let _ = S.(late *. late) in
      let g = Reverse.backward tape out in
      close "late node grad" 0. (Reverse.grad g late);
      close "df/dx" 4. (Reverse.grad g x))

let test_reverse_max_min_abs () =
  with_reverse (fun tape (module S) ->
      let x = Reverse.var tape 3. in
      let y = Reverse.var tape (-2.) in
      let f = S.(max x y +. min x y +. abs y) in
      let g = Reverse.backward tape f in
      (* max picks x, min picks y, d|y|/dy = -1 at y<0: df/dx=1, df/dy=0 *)
      close "df/dx" 1. (Reverse.grad g x);
      close "df/dy" 0. (Reverse.grad g y))

let test_reverse_branching_on_primal () =
  with_reverse (fun tape (module S) ->
      let x = Reverse.var tape 2. in
      let f = if S.(x > zero) then S.(x *. x) else S.(~-.x) in
      let g = Reverse.backward tape f in
      close "branch taken by primal" 4. (Reverse.grad g x))

let test_tape_growth () =
  let tape = Tape.create ~capacity_hint:16 () in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let x = Reverse.var tape 1.000001 in
  let acc = ref x in
  for _ = 1 to 100_000 do
    acc := S.(!acc +. (x *. x))
  done;
  let g = Reverse.backward tape !acc in
  close ~eps:1e-6 "grad after growth" 200_001. (Reverse.grad g x);
  Alcotest.(check bool) "tape grew" true (Tape.length tape > 16);
  Tape.clear tape;
  Alcotest.(check int) "clear resets" 0 (Tape.length tape)

(* Chunked storage: pushes landing exactly on slab edges must keep ids
   continuous and never copy; capacity grows by whole slabs. *)
let test_tape_slab_edges () =
  let tape = Tape.create ~capacity_hint:16 () in
  Alcotest.(check int) "slab size" 16 (Tape.slab_nodes tape);
  Alcotest.(check int) "one slab reserved" 16 (Tape.capacity tape);
  (* Fill slab 0 exactly. *)
  let ids = Array.init 16 (fun _ -> Tape.fresh_var tape) in
  Array.iteri
    (fun i id -> Alcotest.(check int) "id dense in slab 0" i id)
    ids;
  Alcotest.(check int) "slab 0 full, not grown yet" 16 (Tape.capacity tape);
  (* The 17th push crosses into slab 1. *)
  let id16 = Tape.fresh_var tape in
  Alcotest.(check int) "first id of slab 1" 16 id16;
  Alcotest.(check int) "two slabs reserved" 32 (Tape.capacity tape);
  (* Land a push exactly on the next edge too. *)
  for i = 17 to 32 do
    Alcotest.(check int) "ids continuous across edges" i (Tape.fresh_var tape)
  done;
  Alcotest.(check int) "three slabs reserved" 48 (Tape.capacity tape);
  Alcotest.(check int) "length counts every slab" 33 (Tape.length tape)

(* Node ids are int32: 2^31 nodes (ids up to 2^31 - 1) fit, one more
   raises the typed error every tape's growth step checks.  Checked on
   the limit itself, without recording a 48 GB tape. *)
let test_tape_node_limit () =
  let open Tape_intf in
  Alcotest.(check int) "limit is 2^31" (1 lsl 31) max_nodes;
  Alcotest.(check int) "last id fits int32" (max_nodes - 1)
    (Int32.to_int (Int32.of_int (max_nodes - 1)));
  Alcotest.(check bool) "next id would wrap" true
    (Int32.to_int (Int32.of_int max_nodes) < 0);
  check_nodes max_nodes;
  Alcotest.check_raises "2^31 + 1 nodes raise" (Too_many_nodes (max_nodes + 1))
    (fun () -> check_nodes (max_nodes + 1))

let test_tape_multi_slab_backward () =
  (* A gradient with known closed form across many slabs: f = sum of
     x^2 repeated m times, recorded on 16-node slabs.  Parents of the
     first nodes of a slab live in earlier slabs, so the sweep exercises
     cross-slab adjoint propagation. *)
  let tape = Tape.create ~capacity_hint:16 () in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let x = Reverse.var tape 1.5 in
  let m = 1000 in
  let acc = ref S.zero in
  for _ = 1 to m do
    acc := S.(!acc +. (x *. x))
  done;
  Alcotest.(check bool) "spans many slabs" true
    (Tape.length tape > 50 * Tape.slab_nodes tape);
  let g = Reverse.backward tape !acc in
  close "f" (float_of_int m *. 2.25) (Reverse.value !acc);
  close "df/dx across slabs" (float_of_int m *. 3.) (Reverse.grad g x)

let test_tape_clear_reuses_slabs () =
  let tape = Tape.create ~capacity_hint:16 () in
  for _ = 1 to 100 do
    ignore (Tape.fresh_var tape)
  done;
  let reserved = Tape.capacity tape in
  Tape.clear tape;
  Alcotest.(check int) "clear resets length" 0 (Tape.length tape);
  Alcotest.(check int) "clear keeps storage" reserved (Tape.capacity tape);
  for _ = 1 to 100 do
    ignore (Tape.fresh_var tape)
  done;
  Alcotest.(check int) "refill reuses slabs" reserved (Tape.capacity tape);
  (* The refilled tape must still differentiate correctly. *)
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let x = Reverse.var tape 3. in
  let y = S.(x *. x) in
  let g = Reverse.backward tape y in
  close "gradient after clear+reuse" 6. (Reverse.grad g x)

let test_tape_second_backward () =
  (* Two backward sweeps over the same tape.  The sweeps share the
     cached accumulator, so each gradient must be read before the next
     sweep runs (a new [backward] invalidates the previous result). *)
  with_reverse (fun tape (module S) ->
      let x = Reverse.var tape 2. in
      let y1 = S.(x *. x) in
      let y2 = S.(y1 *. x) in
      let g1 = Reverse.backward tape y1 in
      close "dy1/dx" 4. (Reverse.grad g1 x);
      let g2 = Reverse.backward tape y2 in
      close "dy2/dx" 12. (Reverse.grad g2 x);
      (* The second sweep reused the buffer: the frontier reset must
         have cleared the first sweep's entries, not kept them. *)
      (match Tape.last_sweep tape with
      | None -> Alcotest.fail "no sweep stats after backward"
      | Some st ->
          Alcotest.(check int)
            "swept covers the output prefix"
            (Reverse.node_id y2 + 1)
            st.Scvad_ad.Tape_intf.swept_nodes;
          Alcotest.(check bool)
            "visited <= swept" true
            Scvad_ad.Tape_intf.(st.visited_nodes <= st.swept_nodes)))

(* ------------------------------------------------------------------ *)
(* Forward mode                                                        *)
(* ------------------------------------------------------------------ *)

let test_dual_basic () =
  let module S = Dual.Scalar in
  let x = Dual.var 3. in
  let y = Dual.const 4. in
  let f = S.((x +. y) *. x) in
  close "value" 21. (Dual.value f);
  close "df/dx" 10. (Dual.tangent f)

let test_dual_transcendental () =
  let module S = Dual.Scalar in
  let x = Dual.var 0.7 in
  let f = S.(exp (sin x) +. log (sqrt x)) in
  let expected = (cos 0.7 *. exp (sin 0.7)) +. (0.5 /. 0.7) in
  close "df/dx" expected (Dual.tangent f)

let test_dual_division () =
  let module S = Dual.Scalar in
  let x = Dual.var 2. in
  let f = S.(one /. x) in
  close "d(1/x)/dx" (-0.25) (Dual.tangent f)

(* ------------------------------------------------------------------ *)
(* Activity (dependence-only) mode: Reverse's recording, Tape.reach     *)
(* ------------------------------------------------------------------ *)

(* Dependence reach of [out] on [tape], read per value. *)
let active tape out =
  let r = Tape.reach tape ~output:(Reverse.node_id out) in
  fun x -> Tape.reachable r (Reverse.node_id x)

let test_activity_vs_gradient_on_zero_mul () =
  (* The documented over-approximation: x*0 is active but has zero
     gradient. *)
  with_reverse (fun tape (module A) ->
      let x = Reverse.var tape 7. in
      let y = Reverse.var tape 8. in
      let f = A.((x *. zero) +. y) in
      let active = active tape f in
      Alcotest.(check bool) "x active through *0" true (active x);
      Alcotest.(check bool) "y active" true (active y))

let test_activity_unused () =
  with_reverse (fun tape (module A) ->
      let x = Reverse.var tape 7. in
      let y = Reverse.var tape 8. in
      let f = A.(y *. y) in
      let active = active tape f in
      Alcotest.(check bool) "x inactive" false (active x);
      Alcotest.(check bool) "y active" true (active y))

let test_dep_tape_bitset_edges () =
  (* Chains long enough to cross byte and slab boundaries in the
     bitset. *)
  let t = Tape.create ~capacity_hint:4 () in
  let v0 = Tape.fresh_var t in
  let last = ref v0 in
  for _ = 1 to 100 do
    last := Tape.push1 t !last 1.
  done;
  let r = Tape.reach t ~output:!last in
  Alcotest.(check bool) "root reachable" true (Tape.reachable r v0);
  for _ = 1 to 3 do
    ignore (Tape.fresh_var t)
  done;
  let r2 = Tape.reach t ~output:!last in
  Alcotest.(check bool) "fresh var not reachable" false
    (Tape.reachable r2 (Tape.length t - 1))

(* Reach on an empty tape must refuse with a diagnostic naming the
   offending node and the tape length, not crash or mis-index. *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_dep_tape_empty_backward () =
  let t = Tape.create () in
  let expect_invalid output =
    match Tape.reach t ~output with
    | _ -> Alcotest.failf "reach %d on empty tape did not raise" output
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "message %S names node %d" msg output)
          true
          (contains_sub msg (string_of_int output))
  in
  expect_invalid 0;
  expect_invalid (-1);
  expect_invalid 7

(* An output that is a fresh variable with no pushed dependencies
   reaches exactly itself. *)
let test_dep_tape_fresh_output () =
  let t = Tape.create () in
  let a = Tape.fresh_var t in
  let b = Tape.fresh_var t in
  let r = Tape.reach t ~output:a in
  Alcotest.(check bool) "output reaches itself" true (Tape.reachable r a);
  Alcotest.(check bool) "sibling var unreachable" false (Tape.reachable r b);
  Alcotest.(check bool) "id past the sweep unreachable" false
    (Tape.reachable r (b + 1))

(* A reach outlives [clear]: it is a snapshot, so reusing the tape for
   a second recording must not corrupt answers about the first. *)
let test_dep_tape_clear_then_reuse () =
  let t = Tape.create ~capacity_hint:4 () in
  let v0 = Tape.fresh_var t in
  let n1 = Tape.push1 t v0 0. in
  let r1 = Tape.reach t ~output:n1 in
  Tape.clear t;
  Alcotest.(check int) "cleared tape is empty" 0 (Tape.length t);
  (* Second, disjoint recording on the reused storage. *)
  let w0 = Tape.fresh_var t in
  let w1 = Tape.fresh_var t in
  let m = Tape.push2 t w0 0. w1 0. in
  let r2 = Tape.reach t ~output:m in
  Alcotest.(check bool) "old reach still answers" true (Tape.reachable r1 v0);
  Alcotest.(check bool) "new reach covers both vars" true
    (Tape.reachable r2 w0 && Tape.reachable r2 w1);
  Alcotest.(check bool) "old reach rejects ids beyond its sweep" false
    (Tape.reachable r1 m)

(* A budgeted tape discards slabs while sweeping backward: reach must
   refuse it rather than read released storage. *)
let test_reach_refuses_discarded () =
  let t = Tape.create ~capacity_hint:16 ~budget_nodes:16 () in
  let out = ref (-1) in
  let step _ =
    let last = ref 0 in
    for _ = 1 to 40 do
      last := Tape.push1 t !last 1.
    done;
    out := !last
  in
  Tape.set_program t ~capture:(fun () -> fun () -> ()) ~replay_step:step;
  ignore (Tape.fresh_var t);
  Tape.start_segment t;
  step 0;
  ignore (Tape.backward t ~output:!out);
  match Tape.reach t ~output:!out with
  | _ -> Alcotest.fail "reach over discarded slabs did not raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Integer taint                                                       *)
(* ------------------------------------------------------------------ *)

let test_itaint_arith () =
  let t = Tape.create () in
  let a = Itaint.var t 3 in
  let b = Itaint.var t 4 in
  let c = Itaint.var t 10 in
  let s = Itaint.add t (Itaint.mul t a b) (Itaint.const 5) in
  Alcotest.(check int) "value" 17 (Itaint.value s);
  let r = Itaint.backward t s in
  Alcotest.(check bool) "a critical" true (Itaint.critical r a);
  Alcotest.(check bool) "b critical" true (Itaint.critical r b);
  Alcotest.(check bool) "c not critical" false (Itaint.critical r c)

let test_itaint_index_dependence () =
  (* Bucket-sort shape: a counter incremented at a key-derived index must
     depend on the key. *)
  let t = Tape.create () in
  let key = Itaint.var t 13 in
  let counts = Array.init 4 (fun _ -> Itaint.const 0) in
  let bucket = Itaint.shift_right t key 2 (* 13 asr 2 = 3 *) in
  let old = Itaint.get t counts bucket in
  Itaint.set t counts bucket (Itaint.add t old (Itaint.const 1));
  Alcotest.(check int) "count value" 1 (Itaint.value counts.(3));
  let r = Itaint.backward t counts.(3) in
  Alcotest.(check bool) "count depends on key" true (Itaint.critical r key)

let test_itaint_comparison_control_dep () =
  (* passed_verification-style counter under a data-dependent branch. *)
  let t = Tape.create () in
  let a = Itaint.var t 3 in
  let b = Itaint.var t 7 in
  let passed = Itaint.add t (Itaint.const 0) (Itaint.le t a b) in
  Alcotest.(check int) "passed" 1 (Itaint.value passed);
  let r = Itaint.backward t passed in
  Alcotest.(check bool) "depends on a" true (Itaint.critical r a);
  Alcotest.(check bool) "depends on b" true (Itaint.critical r b)

let test_itaint_untraced_subscript () =
  let t = Tape.create () in
  let arr = Array.init 4 (fun i -> Itaint.var t (i * i)) in
  let x = Itaint.get t arr (Itaint.const 2) in
  Alcotest.(check int) "plain subscript read" 4 (Itaint.value x);
  let r = Itaint.backward t x in
  Alcotest.(check bool) "cell critical" true (Itaint.critical r arr.(2));
  Alcotest.(check bool) "other cell not critical" false
    (Itaint.critical r arr.(1))

(* ------------------------------------------------------------------ *)
(* Finite differences                                                  *)
(* ------------------------------------------------------------------ *)

let test_finite_diff_polynomial () =
  let f x = (x.(0) *. x.(0) *. x.(1)) +. (3. *. x.(1)) in
  let x = [| 2.; 5. |] in
  close ~eps:1e-5 "df/dx0" 20. (Finite_diff.derivative f x 0);
  close ~eps:1e-5 "df/dx1" 7. (Finite_diff.derivative f x 1);
  let g = Finite_diff.gradient f x in
  close ~eps:1e-5 "gradient.(0)" 20. g.(0);
  Alcotest.(check (float 1e-12)) "x restored" 2. x.(0)

(* The effective step is relative to the coordinate's magnitude:
   absolute below |x| = 1, scaled by |x| above it. *)
let test_finite_diff_relative_step () =
  Alcotest.(check (float 0.)) "absolute step for |x| <= 1" 1e-6
    (Finite_diff.step 0.5);
  Alcotest.(check (float 0.)) "absolute step at zero" 1e-6
    (Finite_diff.step 0.);
  Alcotest.(check (float 0.)) "relative step for large x" 1e6
    (Finite_diff.step 1e12);
  Alcotest.(check (float 0.)) "sign ignored" 1e6 (Finite_diff.step (-1e12));
  Alcotest.(check (float 0.)) "?h override" 1e-2
    (Finite_diff.step ~h:1e-2 0.5)

(* At |x| = 1e8 an absolute 1e-6 step is below ulp(x): x +. h = x and
   the central difference collapses to 0/0-grade cancellation.  The
   relative step keeps the quotient accurate. *)
let test_finite_diff_large_magnitude () =
  let f x = x.(0) *. x.(0) in
  let x = [| 1e8 |] in
  close ~eps:1e2 "d(x^2)/dx at 1e8" 2e8 (Finite_diff.derivative f x 0);
  Alcotest.(check (float 0.)) "x restored" 1e8 x.(0)

(* ------------------------------------------------------------------ *)
(* Cross-engine agreement on random expression trees (qcheck)          *)
(* ------------------------------------------------------------------ *)

type expr =
  | X of int
  | Const of float
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Safe_div of expr * expr (* a / (2 + b^2): never singular *)
  | Sqrt1p of expr (* sqrt (1 + e^2) *)
  | Sin of expr
  | Cos of expr
  | Explin of expr (* exp (e / 8): bounded growth for small trees *)

module Eval (S : Scalar.S) = struct
  let rec eval (env : S.t array) = function
    | X i -> env.(i mod Array.length env)
    | Const c -> S.of_float c
    | Add (a, b) -> S.(eval env a +. eval env b)
    | Sub (a, b) -> S.(eval env a -. eval env b)
    | Mul (a, b) -> S.(eval env a *. eval env b)
    | Safe_div (a, b) ->
        let d = eval env b in
        S.(eval env a /. (of_float 2. +. (d *. d)))
    | Sqrt1p a ->
        let e = eval env a in
        S.(sqrt (one +. (e *. e)))
    | Sin a -> S.sin (eval env a)
    | Cos a -> S.cos (eval env a)
    | Explin a -> S.(exp (eval env a /. of_float 8.))
end

let expr_gen_sized =
  let open QCheck.Gen in
  fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun i -> X i) (int_bound 3);
            map (fun c -> Const c) (float_bound_inclusive 2.) ]
      else
        let sub = self (n / 2) in
        frequency
          [ (3, map2 (fun a b -> Add (a, b)) sub sub);
            (2, map2 (fun a b -> Sub (a, b)) sub sub);
            (3, map2 (fun a b -> Mul (a, b)) sub sub);
            (1, map2 (fun a b -> Safe_div (a, b)) sub sub);
            (1, map (fun a -> Sqrt1p a) sub);
            (1, map (fun a -> Sin a) sub);
            (1, map (fun a -> Cos a) sub);
            (1, map (fun a -> Explin a) sub) ])

let rec expr_print = function
  | X i -> Printf.sprintf "x%d" i
  | Const c -> Printf.sprintf "%g" c
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (expr_print a) (expr_print b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (expr_print a) (expr_print b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (expr_print a) (expr_print b)
  | Safe_div (a, b) ->
      Printf.sprintf "(%s / (2 + %s^2))" (expr_print a) (expr_print b)
  | Sqrt1p a -> Printf.sprintf "sqrt(1 + %s^2)" (expr_print a)
  | Sin a -> Printf.sprintf "sin(%s)" (expr_print a)
  | Cos a -> Printf.sprintf "cos(%s)" (expr_print a)
  | Explin a -> Printf.sprintf "exp(%s / 8)" (expr_print a)

let expr_arb = QCheck.make ~print:expr_print (QCheck.Gen.sized expr_gen_sized)

(* Finite differences lose accuracy on deeply nested expressions
   (truncation error compounds), so that oracle only sees small trees. *)
let small_expr_arb =
  let open QCheck.Gen in
  QCheck.make ~print:expr_print (int_bound 10 >>= expr_gen_sized)

let inputs = [| 0.3; -1.2; 0.9; 2.1 |]

let reverse_gradient expr =
  let tape = Tape.create () in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let env = Array.map (Reverse.var tape) inputs in
  let module E = Eval (S) in
  let out = E.eval env expr in
  let g = Reverse.backward tape out in
  (Reverse.value out, Array.map (Reverse.grad g) env)

let dual_gradient expr =
  Array.mapi
    (fun i _ ->
      let env =
        Array.mapi
          (fun j v -> if i = j then Dual.var v else Dual.const v)
          inputs
      in
      let module E = Eval (Dual.Scalar) in
      Dual.tangent (E.eval env expr))
    inputs

let float_eval expr (x : float array) =
  let module E = Eval (Float_scalar) in
  E.eval x expr

let agree ?(eps = 1e-7) a b =
  let scale = Stdlib.max 1. (Stdlib.max (abs_float a) (abs_float b)) in
  abs_float (a -. b) <= eps *. scale

(* Deep random expressions can overflow (exp towers); once a value is
   non-finite the two engines may disagree as inf vs nan, which says
   nothing about AD correctness — skip those cases. *)
let finite_case expr =
  let v = float_eval expr (Array.copy inputs) in
  Float.is_finite v

let all_finite arr = Array.for_all Float.is_finite arr

let prop_reverse_eq_dual =
  QCheck.Test.make ~count:300 ~name:"reverse gradient = forward gradient"
    expr_arb (fun e ->
      if not (finite_case e) then true
      else begin
        let _, gr = reverse_gradient e in
        let gd = dual_gradient e in
        if not (all_finite gr && all_finite gd) then true
        else Array.for_all2 (fun a b -> agree a b) gr gd
      end)

let prop_reverse_primal_eq_float =
  QCheck.Test.make ~count:300 ~name:"reverse primal = float run" expr_arb
    (fun e ->
      if not (finite_case e) then true
      else
        let v, _ = reverse_gradient e in
        agree v (float_eval e (Array.copy inputs)))

let prop_reverse_eq_finite_diff =
  QCheck.Test.make ~count:150 ~name:"reverse gradient ≈ finite difference"
    small_expr_arb (fun e ->
      if not (finite_case e) then true
      else begin
      let _, gr = reverse_gradient e in
      let x = Array.copy inputs in
      let ok = ref true in
      Array.iteri
        (fun i g ->
          let fd = Finite_diff.derivative (float_eval e) x i in
          (* finite differences are noisy: loose tolerance *)
          if Float.is_finite g && Float.is_finite fd
             && not (agree ~eps:1e-3 g fd)
          then ok := false)
        gr;
      !ok
      end)

let prop_activity_superset_of_nonzero_grad =
  QCheck.Test.make ~count:300
    ~name:"activity ⊇ {nonzero gradient}" expr_arb (fun e ->
      if not (finite_case e) then true
      else
      let _, gr = reverse_gradient e in
      let tape = Tape.create () in
      let module A = Reverse.Scalar_of (struct
        let tape = tape
      end) in
      let env = Array.map (Reverse.var tape) inputs in
      let module E = Eval (A) in
      let out = E.eval env e in
      let active =
        if Reverse.is_const out then fun _ -> false else active tape out
      in
      Array.for_all2 (fun g v -> (not (g <> 0.)) || active v) gr env)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_reverse_eq_dual;
      prop_reverse_primal_eq_float;
      prop_reverse_eq_finite_diff;
      prop_activity_superset_of_nonzero_grad ]

let suites =
  [ ( "ad.reverse",
      [ Alcotest.test_case "square" `Quick test_reverse_square;
        Alcotest.test_case "two vars (Fig 1 shape)" `Quick
          test_reverse_two_vars;
        Alcotest.test_case "division chain" `Quick test_reverse_division_chain;
        Alcotest.test_case "transcendental" `Quick test_reverse_transcendental;
        Alcotest.test_case "fan-out accumulation" `Quick test_reverse_fanout;
        Alcotest.test_case "constant folding" `Quick test_constant_folding;
        Alcotest.test_case "zero partial ≠ zero dependence" `Quick
          test_reverse_zero_partial;
        Alcotest.test_case "constant output" `Quick
          test_reverse_constant_output;
        Alcotest.test_case "node after output" `Quick
          test_reverse_node_after_output;
        Alcotest.test_case "max/min/abs subgradients" `Quick
          test_reverse_max_min_abs;
        Alcotest.test_case "branch on primal" `Quick
          test_reverse_branching_on_primal;
        Alcotest.test_case "tape growth + clear" `Quick test_tape_growth;
        Alcotest.test_case "push at slab edges" `Quick test_tape_slab_edges;
        Alcotest.test_case "node-id limit at 2^31" `Quick test_tape_node_limit;
        Alcotest.test_case "backward over multi-slab tape" `Quick
          test_tape_multi_slab_backward;
        Alcotest.test_case "clear retains and reuses slabs" `Quick
          test_tape_clear_reuses_slabs;
        Alcotest.test_case "two backward sweeps" `Quick
          test_tape_second_backward ] );
    ( "ad.dual",
      [ Alcotest.test_case "basic" `Quick test_dual_basic;
        Alcotest.test_case "transcendental" `Quick test_dual_transcendental;
        Alcotest.test_case "division" `Quick test_dual_division ] );
    ( "ad.activity",
      [ Alcotest.test_case "active through *0" `Quick
          test_activity_vs_gradient_on_zero_mul;
        Alcotest.test_case "unused var inactive" `Quick test_activity_unused;
        Alcotest.test_case "bitset edges" `Quick test_dep_tape_bitset_edges;
        Alcotest.test_case "empty-tape backward refuses" `Quick
          test_dep_tape_empty_backward;
        Alcotest.test_case "fresh output reaches itself" `Quick
          test_dep_tape_fresh_output;
        Alcotest.test_case "clear then reuse" `Quick
          test_dep_tape_clear_then_reuse;
        Alcotest.test_case "reach refuses a discarded tape" `Quick
          test_reach_refuses_discarded ] );
    ( "ad.itaint",
      [ Alcotest.test_case "arithmetic joins" `Quick test_itaint_arith;
        Alcotest.test_case "index dependence" `Quick
          test_itaint_index_dependence;
        Alcotest.test_case "comparison control dep" `Quick
          test_itaint_comparison_control_dep;
        Alcotest.test_case "untraced subscript" `Quick
          test_itaint_untraced_subscript ] );
    ( "ad.finite_diff",
      [ Alcotest.test_case "polynomial" `Quick test_finite_diff_polynomial;
        Alcotest.test_case "relative step" `Quick
          test_finite_diff_relative_step;
        Alcotest.test_case "large-magnitude coordinate" `Quick
          test_finite_diff_large_magnitude ] );
    ("ad.properties", qcheck_cases) ]

(* Structural calculus properties: linearity of the derivative and the
   chain rule, on random expression pairs. *)

let prop_gradient_linearity =
  QCheck.Test.make ~count:200 ~name:"d(a·f + b·g) = a·df + b·dg"
    QCheck.(triple small_expr_arb small_expr_arb (pair (float_range (-2.) 2.) (float_range (-2.) 2.)))
    (fun (f, g, (a, b)) ->
      if not (finite_case f && finite_case g) then true
      else begin
        let grad_of expr =
          let tape = Tape.create () in
          let module S = Reverse.Scalar_of (struct
            let tape = tape
          end) in
          let env = Array.map (Reverse.var tape) inputs in
          let module E = Eval (S) in
          let out = E.eval env expr in
          let gr = Reverse.backward tape out in
          Array.map (Reverse.grad gr) env
        in
        let combined =
          let tape = Tape.create () in
          let module S = Reverse.Scalar_of (struct
            let tape = tape
          end) in
          let env = Array.map (Reverse.var tape) inputs in
          let module E = Eval (S) in
          let out =
            S.((of_float a *. E.eval env f) +. (of_float b *. E.eval env g))
          in
          let gr = Reverse.backward tape out in
          Array.map (Reverse.grad gr) env
        in
        let gf = grad_of f and gg = grad_of g in
        let ok = ref true in
        Array.iteri
          (fun i c ->
            let expected = (a *. gf.(i)) +. (b *. gg.(i)) in
            if Float.is_finite expected && Float.is_finite c
               && not (agree ~eps:1e-7 expected c)
            then ok := false)
          combined;
        !ok
      end)

let prop_chain_rule_scale =
  QCheck.Test.make ~count:200 ~name:"d f(k·x) / dx = k · f'(k·x)"
    QCheck.(pair small_expr_arb (float_range 0.25 2.))
    (fun (f, k) ->
      (* Evaluate f over scaled inputs and compare the gradient with the
         gradient of f at the scaled point times k. *)
      let scaled = Array.map (fun v -> k *. v) inputs in
      if
        not
          (Float.is_finite
             (let module E = Eval (Float_scalar) in
              E.eval scaled f))
      then true
      else begin
        let tape = Tape.create () in
        let module S = Reverse.Scalar_of (struct
          let tape = tape
        end) in
        let env = Array.map (Reverse.var tape) inputs in
        let module E = Eval (S) in
        let out = E.eval (Array.map (fun x -> S.(of_float k *. x)) env) f in
        let gr = Reverse.backward tape out in
        (* reference: gradient of f at the scaled point *)
        let tape2 = Tape.create () in
        let module S2 = Reverse.Scalar_of (struct
          let tape = tape2
        end) in
        let env2 = Array.map (Reverse.var tape2) scaled in
        let module E2 = Eval (S2) in
        let out2 = E2.eval env2 f in
        let gr2 = Reverse.backward tape2 out2 in
        let ok = ref true in
        Array.iteri
          (fun i x ->
            let got = Reverse.grad gr x in
            let expected = k *. Reverse.grad gr2 env2.(i) in
            if Float.is_finite got && Float.is_finite expected
               && not (agree ~eps:1e-7 expected got)
            then ok := false)
          env;
        !ok
      end)

let suites =
  suites
  @ [ ( "ad.calculus",
        List.map QCheck_alcotest.to_alcotest
          [ prop_gradient_linearity; prop_chain_rule_scale ] ) ]
