(* Tests for the NPB random generator, including agreement with an exact
   64-bit integer reference of the congruence x <- a*x mod 2^46. *)

open Scvad_nprand.Nprand

(* Exact reference: operands < 2^46 split into 23-bit halves so every
   Int64 product stays below 2^46. *)
let mulmod46 a x =
  let open Int64 in
  let mask23 = 0x7FFFFFL in
  let mask46 = 0x3FFFFFFFFFFFL in
  let a1 = shift_right_logical a 23 and a0 = logand a mask23 in
  let x1 = shift_right_logical x 23 and x0 = logand x mask23 in
  let mid = logand (add (mul a1 x0) (mul a0 x1)) mask23 in
  logand (add (shift_left mid 23) (mul a0 x0)) mask46

let test_matches_integer_reference () =
  let t = create ep_seed in
  let ix = ref (Int64.of_float ep_seed) in
  let ia = Int64.of_float default_mult in
  for step = 1 to 10_000 do
    ignore (next t);
    ix := mulmod46 ia !ix;
    if Int64.of_float (seed t) <> !ix then
      Alcotest.failf "diverged from integer reference at step %d" step
  done

let test_uniform_range_and_mean () =
  let t = create cg_seed in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let u = next t in
    if u <= 0. || u >= 1. then Alcotest.failf "deviate out of (0,1): %g" u;
    sum := !sum +. u
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 0.5) > 0.01 then
    Alcotest.failf "mean suspicious: %g" mean

let test_determinism () =
  let a = create ep_seed and b = create ep_seed in
  for _ = 1 to 1000 do
    Alcotest.(check (float 0.)) "same stream" (next a) (next b)
  done

let test_vranlc_matches_randlc () =
  let a = create cg_seed and b = create cg_seed in
  let buf = Array.make 64 0. in
  vranlc a ~a:default_mult 64 buf 0;
  Array.iter
    (fun v -> Alcotest.(check (float 0.)) "vranlc = randlc" (randlc b ~a:default_mult) v)
    buf

(* [vranlc] against [n] successive [randlc] calls: every deviate's bits,
   the slots around the filled range, and the seed it leaves behind.
   Lengths cover an empty fill, every remainder modulo four, and long
   runs; multipliers cover NPB's default and a jump multiplier. *)
let test_vranlc_oracle () =
  let jump = ipow46 default_mult 12345 in
  List.iter
    (fun (mult_name, a) ->
      List.iter
        (fun n ->
          List.iter
            (fun off ->
              let t = create cg_seed and r = create cg_seed in
              let dst = Array.make (n + off + 2) (-1.) in
              vranlc t ~a n dst off;
              for i = 0 to Array.length dst - 1 do
                let want =
                  if i >= off && i < off + n then randlc r ~a else -1.
                in
                if Int64.bits_of_float dst.(i) <> Int64.bits_of_float want
                then
                  Alcotest.failf "%s, n = %d, off = %d: slot %d is %h, not %h"
                    mult_name n off i dst.(i) want
              done;
              if Int64.bits_of_float (seed t) <> Int64.bits_of_float (seed r)
              then
                Alcotest.failf "%s, n = %d, off = %d: final seed %h, not %h"
                  mult_name n off (seed t) (seed r))
            [ 0; 3 ])
        (List.init 10 Fun.id @ [ 63; 64; 65; 131072 ]))
    [ ("default_mult", default_mult); ("ipow46 jump", jump) ]

let test_ipow46_jump_ahead () =
  List.iter
    (fun k ->
      (* Starting from seed 1, k multiplications by a land on a^k. *)
      let t = create 1. in
      for _ = 1 to k do
        ignore (randlc t ~a:default_mult)
      done;
      Alcotest.(check (float 0.))
        (Printf.sprintf "ipow46 a %d" k)
        (seed t)
        (ipow46 default_mult k))
    [ 1; 2; 3; 7; 100; 12345 ]

let test_ipow46_zero () =
  Alcotest.(check (float 0.)) "a^0 = 1" 1. (ipow46 default_mult 0)

let suites =
  [ ( "nprand",
      [ Alcotest.test_case "integer reference (10k steps)" `Quick
          test_matches_integer_reference;
        Alcotest.test_case "uniform range and mean" `Quick
          test_uniform_range_and_mean;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "vranlc = randlc" `Quick test_vranlc_matches_randlc;
        Alcotest.test_case "vranlc = n randlc steps (bits and seed)" `Quick
          test_vranlc_oracle;
        Alcotest.test_case "ipow46 jump-ahead" `Quick test_ipow46_jump_ahead;
        Alcotest.test_case "ipow46 zero" `Quick test_ipow46_zero ] ) ]
