(* Tests for the linear-algebra substrate: 5x5 blocks, block-tridiagonal
   and pentadiagonal solvers, complex arithmetic and the FFT — in float
   mode against dense references, and under AD against finite
   differences. *)

open Scvad_ad
module B = Scvad_solvers.Block5.Make (Float_scalar)
module BT = Scvad_solvers.Btridiag.Make (Float_scalar)
module P = Scvad_solvers.Pentadiag.Make (Float_scalar)
module C = Scvad_solvers.Dcomplex.Make (Float_scalar)
module F = Scvad_solvers.Fft.Make (Float_scalar)

let close ?(eps = 1e-9) msg expected got =
  let scale = Stdlib.max 1. (abs_float expected) in
  if abs_float (expected -. got) > eps *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected got

let rand_state = Random.State.make [| 42 |]
let rand () = Random.State.float rand_state 2. -. 1.

(* Random diagonally dominant 5x5 block. *)
let random_block () =
  let m = B.zero () in
  for i = 0 to 4 do
    for j = 0 to 4 do
      B.set m i j (rand ())
    done;
    B.set m i i (B.get m i i +. 6.)
  done;
  m

let random_vec () = Array.init 5 (fun _ -> rand ())

let test_block5_identity () =
  let m = random_block () in
  let i5 = B.identity () in
  let mi = B.matmul m i5 in
  Array.iteri (fun k v -> close "M*I = M" m.(k) v) mi;
  let x = random_vec () in
  let ix = B.matvec i5 x in
  Array.iteri (fun k v -> close "I*x = x" x.(k) v) ix

let test_block5_solve () =
  let m = random_block () in
  let x = random_vec () in
  let r = B.matvec m x in
  B.solve m r;
  Array.iteri (fun k v -> close ~eps:1e-10 "solve recovers x" x.(k) v) r

let test_block5_gauss_jordan_inverse () =
  (* gauss_jordan with c = I computes A^-1 in c. *)
  let m = random_block () in
  let minv = B.identity () in
  let r = random_vec () in
  B.gauss_jordan (B.copy m) minv r;
  let prod = B.matmul m minv in
  for i = 0 to 4 do
    for j = 0 to 4 do
      close ~eps:1e-9 "A * A^-1 = I"
        (if i = j then 1. else 0.)
        (B.get prod i j)
    done
  done

let test_block5_of_rows () =
  let rows = Array.init 5 (fun i -> Array.init 5 (fun j -> float ((i * 5) + j))) in
  let m = B.of_rows rows in
  close "of_rows layout" 13. (B.get m 2 3)

(* Dense reference multiply of a block-tridiagonal system. *)
let btridiag_apply ~a ~b ~c (x : float array array) =
  let n = Array.length b in
  Array.init n (fun i ->
      let acc = B.matvec b.(i) x.(i) in
      let acc =
        if i > 0 then Array.map2 ( +. ) acc (B.matvec a.(i) x.(i - 1))
        else acc
      in
      if i < n - 1 then Array.map2 ( +. ) acc (B.matvec c.(i) x.(i + 1))
      else acc)

let test_btridiag_solve_sizes () =
  List.iter
    (fun n ->
      let a = Array.init n (fun _ -> random_block ()) in
      let b = Array.init n (fun _ -> random_block ()) in
      let c = Array.init n (fun _ -> random_block ()) in
      let x = Array.init n (fun _ -> random_vec ()) in
      let r = btridiag_apply ~a ~b ~c x in
      BT.solve ~a ~b ~c ~r;
      Array.iteri
        (fun i xi ->
          Array.iteri
            (fun k v -> close ~eps:1e-7 (Printf.sprintf "n=%d x[%d][%d]" n i k) v xi.(k))
            r.(i))
        x)
    [ 1; 2; 3; 8; 12 ]

let pentadiag_apply ~e ~a ~d ~c ~f (x : float array) =
  let n = Array.length d in
  Array.init n (fun i ->
      let acc = ref (d.(i) *. x.(i)) in
      if i >= 2 then acc := !acc +. (e.(i) *. x.(i - 2));
      if i >= 1 then acc := !acc +. (a.(i) *. x.(i - 1));
      if i + 1 < n then acc := !acc +. (c.(i) *. x.(i + 1));
      if i + 2 < n then acc := !acc +. (f.(i) *. x.(i + 2));
      !acc)

let test_pentadiag_solve_sizes () =
  List.iter
    (fun n ->
      let band () = Array.init n (fun _ -> rand ()) in
      let e = band () and a = band () and c = band () and f = band () in
      let d = Array.init n (fun _ -> 8. +. rand ()) in
      let x = Array.init n (fun _ -> rand ()) in
      let r = pentadiag_apply ~e ~a ~d ~c ~f x in
      P.solve ~e ~a ~d ~c ~f ~r;
      Array.iteri
        (fun i xi -> close ~eps:1e-8 (Printf.sprintf "n=%d x[%d]" n i) xi r.(i))
        x)
    [ 1; 2; 3; 5; 12; 33 ]

let test_dcomplex_add_scale () =
  let a = C.of_floats 1.5 (-2.) in
  let b = C.make 0.25 3. in
  let s = C.add a b in
  let refc = Complex.add { re = 1.5; im = -2. } { re = 0.25; im = 3. } in
  close "add re" refc.re (C.re s);
  close "add im" refc.im (C.im s);
  let k = C.scale 4. a in
  close "scale re" 6. (C.re k);
  close "scale im" (-8.) (C.im k);
  close "zero" 0. (C.re C.zero +. C.im C.zero)

(* Naive DFT reference. *)
let dft_naive sign (input : Complex.t array) =
  let n = Array.length input in
  Array.init n (fun k ->
      let acc = ref Complex.zero in
      for j = 0 to n - 1 do
        let angle = sign *. 2. *. Float.pi *. float_of_int (j * k) /. float_of_int n in
        let w = { Complex.re = cos angle; im = sin angle } in
        acc := Complex.add !acc (Complex.mul w input.(j))
      done;
      !acc)

let random_signal n = Array.init n (fun _ -> { Complex.re = rand (); im = rand () })

(* The FFT's interleaved storage: entry k at slots 2k (re), 2k+1 (im). *)
let interleave (zs : Complex.t array) =
  let a = Array.make (2 * Array.length zs) 0. in
  Array.iteri
    (fun k (z : Complex.t) ->
      a.(2 * k) <- z.re;
      a.((2 * k) + 1) <- z.im)
    zs;
  a

let entry (a : float array) k = (a.(2 * k), a.((2 * k) + 1))

let test_fft_matches_dft () =
  List.iter
    (fun n ->
      let signal = random_signal n in
      let a = interleave signal in
      F.forward a ~off:0 ~n;
      let expected = dft_naive (-1.) signal in
      for k = 0 to n - 1 do
        let re, im = entry a k in
        close ~eps:1e-9 (Printf.sprintf "n=%d re[%d]" n k) expected.(k).re re;
        close ~eps:1e-9 (Printf.sprintf "n=%d im[%d]" n k) expected.(k).im im
      done)
    [ 1; 2; 4; 8; 16; 64 ]

let test_fft_roundtrip () =
  let n = 64 in
  let signal = random_signal n in
  let a = interleave signal in
  F.forward a ~off:0 ~n;
  F.inverse a ~off:0 ~n;
  for k = 0 to n - 1 do
    let re, im = entry a k in
    close ~eps:1e-10 "roundtrip re" signal.(k).re re;
    close ~eps:1e-10 "roundtrip im" signal.(k).im im
  done

let test_fft_delta () =
  (* FFT of a delta is the constant 1. *)
  let n = 16 in
  let a = Array.make (2 * n) 0. in
  a.(0) <- 1.;
  F.forward a ~off:0 ~n;
  for k = 0 to n - 1 do
    let re, im = entry a k in
    close "delta re" 1. re;
    close "delta im" 0. im
  done

let test_fft_subrange () =
  (* Transform only a pencil in the middle of a larger array. *)
  let total = 32 and off = 8 and n = 16 in
  let signal = random_signal total in
  let a = interleave signal in
  F.forward a ~off ~n;
  let expected = dft_naive (-1.) (Array.sub signal off n) in
  for k = 0 to n - 1 do
    let re, im = entry a (off + k) in
    close "pencil re" expected.(k).re re;
    close "pencil im" expected.(k).im im
  done;
  (* Outside the pencil untouched. *)
  List.iter
    (fun k ->
      let re, im = entry a k in
      close "outside untouched re" signal.(k).re re;
      close "outside untouched im" signal.(k).im im)
    [ 0; off - 1; off + n; total - 1 ]

let test_fft_bad_size () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Fft.plan: n must be 2^k") (fun () ->
      F.forward (Array.make 24 0.) ~off:0 ~n:12)

(* AD through the solvers: gradient vs finite differences. *)

(* f(params) = sum of solution of a diagonally dominant block-tridiagonal
   system built from params. *)
module Btridiag_fn (S : Scalar.S) = struct
  let n = 4

  let run (get : int -> S.t) =
    let module BTx = Scvad_solvers.Btridiag.Make (S) in
    let pos = ref 0 in
    let nextv () =
      let v = get !pos in
      incr pos;
      v
    in
    let block ~dom =
      let m = Array.init 25 (fun _ -> nextv ()) in
      if dom then
        for i = 0 to 4 do
          m.((i * 5) + i) <- S.(m.((i * 5) + i) +. of_float 8.)
        done;
      m
    in
    let a = Array.init n (fun _ -> block ~dom:false) in
    let b = Array.init n (fun _ -> block ~dom:true) in
    let c = Array.init n (fun _ -> block ~dom:false) in
    let r = Array.init n (fun _ -> Array.init 5 (fun _ -> nextv ())) in
    BTx.solve ~a ~b ~c ~r;
    let acc = ref S.zero in
    Array.iter (Array.iter (fun v -> acc := S.(!acc +. v))) r;
    !acc
end

let test_ad_through_btridiag () =
  let n = 4 in
  let mk_input () =
    Array.init (n * ((3 * 25) + 5)) (fun i -> 0.1 +. (0.01 *. float i))
  in
  let float_f (x : float array) =
    let module R = Btridiag_fn (Float_scalar) in
    R.run (fun i -> x.(i))
  in
  let x = mk_input () in
  let tape = Tape.create () in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let vars = Array.map (Reverse.var tape) x in
  let out =
    let module R = Btridiag_fn (S) in
    R.run (fun i -> vars.(i))
  in
  let g = Reverse.backward tape out in
  close ~eps:1e-9 "primal agrees" (float_f (Array.copy x)) (Reverse.value out);
  (* Spot-check a handful of coordinates against finite differences. *)
  List.iter
    (fun i ->
      let fd = Finite_diff.derivative ~h:1e-6 float_f (Array.copy x) i in
      close ~eps:2e-4
        (Printf.sprintf "d out/d x%d" i)
        fd
        (Reverse.grad g vars.(i)))
    [ 0; 13; 77; 150; Array.length x - 1 ]

module Fft_fn (S : Scalar.S) = struct
  let n = 16

  let run (get : int -> S.t) =
    let module Fx = Scvad_solvers.Fft.Make (S) in
    let a = Array.init (2 * n) get in
    Fx.forward a ~off:0 ~n;
    (* checksum-like output *)
    let acc = ref S.zero in
    Array.iter (fun v -> acc := S.(!acc +. v)) a;
    !acc
end

let test_ad_through_fft () =
  let n = 16 in
  let base = Array.init (2 * n) (fun i -> sin (float i)) in
  let float_f x =
    let module R = Fft_fn (Float_scalar) in
    R.run (fun i -> x.(i))
  in
  let tape = Tape.create () in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let vars = Array.map (Reverse.var tape) base in
  let out =
    let module R = Fft_fn (S) in
    R.run (fun i -> vars.(i))
  in
  let g = Reverse.backward tape out in
  List.iter
    (fun i ->
      let fd = Finite_diff.derivative float_f (Array.copy base) i in
      close ~eps:1e-4 (Printf.sprintf "fft grad %d" i) fd (Reverse.grad g vars.(i)))
    [ 0; 1; 7; 30 ]

(* ------------------------------------------------------------------ *)
(* Generated plain-float solvers                                       *)
(* ------------------------------------------------------------------ *)

(* scvad_float holds each solver generated from its scalar-generic source
   with the scalar bound to plain floats.  It must reproduce the generic
   [Make (Float_scalar)] instance bit for bit. *)
module GB = Scvad_float.Block5.Make
module GBT = Scvad_float.Btridiag.Make
module GP = Scvad_float.Pentadiag.Make
module GC = Scvad_float.Dcomplex.Make
module GF = Scvad_float.Fft.Make

let same_bits msg (generic : float array) (generated : float array) =
  Alcotest.(check int) (msg ^ ": length") (Array.length generic)
    (Array.length generated);
  Array.iteri
    (fun i g ->
      if Int64.bits_of_float g <> Int64.bits_of_float generated.(i) then
        Alcotest.failf "%s[%d]: generic %h, generated %h" msg i g generated.(i))
    generic

let trials = 20

let test_generated_block5 () =
  for _ = 1 to trials do
    let a = random_block () and c = random_block () and r = random_vec () in
    same_bits "matvec" (B.matvec a r) (GB.matvec a r);
    same_bits "matmul" (B.matmul a c) (GB.matmul a c);
    (* The in-place updates, chained on fresh copies per instance. *)
    let update sub_matmul sub_matvec gauss_jordan solve =
      let a = B.copy a and c = B.copy c and r = Array.copy r in
      sub_matmul a c c;
      sub_matvec r a c;
      solve c r;
      gauss_jordan a c r;
      Array.concat [ a; c; r ]
    in
    same_bits "in-place updates"
      (update B.sub_matmul B.sub_matvec B.gauss_jordan B.solve)
      (update GB.sub_matmul GB.sub_matvec GB.gauss_jordan GB.solve)
  done

let test_generated_btridiag () =
  for t = 1 to trials do
    let n = 1 + (t mod 13) in
    let band () = Array.init n (fun _ -> random_block ()) in
    let a = band () and b = band () and c = band () in
    let r = Array.init n (fun _ -> random_vec ()) in
    let solve s =
      let copy = Array.map Array.copy in
      let r = copy r in
      s ~a ~b:(copy b) ~c:(copy c) ~r;
      Array.concat (Array.to_list r)
    in
    same_bits "btridiag" (solve BT.solve) (solve GBT.solve)
  done

let test_generated_pentadiag () =
  for t = 1 to trials do
    let n = 1 + (t mod 13) in
    let band () = Array.init n (fun _ -> rand ()) in
    let e = band () and a = band () and c = band () and f = band () in
    let d = Array.init n (fun _ -> 8. +. rand ()) and r = band () in
    let solve s =
      let copy = Array.copy in
      let r = copy r in
      s ~e:(copy e) ~a:(copy a) ~d:(copy d) ~c:(copy c) ~f:(copy f) ~r;
      r
    in
    same_bits "pentadiag" (solve P.solve) (solve GP.solve)
  done

let test_generated_dcomplex () =
  for _ = 1 to trials do
    let x = rand () and y = rand () and u = rand () and v = rand () in
    let a = C.of_floats x y and b = C.of_floats u v in
    let ga = GC.of_floats x y and gb = GC.of_floats u v in
    let both msg c gc =
      same_bits msg [| C.re c; C.im c |] [| GC.re gc; GC.im gc |]
    in
    both "make" (C.make x y) (GC.make x y);
    both "add" (C.add a b) (GC.add ga gb);
    both "scale" (C.scale u a) (GC.scale u ga)
  done

let test_generated_fft () =
  List.iter
    (fun n ->
      let a = Array.init (2 * n) (fun _ -> rand ()) in
      let ga = Array.copy a in
      F.forward a ~off:0 ~n;
      GF.forward ga ~off:0 ~n;
      same_bits "forward" a ga;
      F.inverse a ~off:0 ~n;
      GF.inverse ga ~off:0 ~n;
      same_bits "inverse" a ga)
    [ 1; 2; 4; 8; 16; 64 ]

let suites =
  [ ( "solvers.block5",
      [ Alcotest.test_case "identity laws" `Quick test_block5_identity;
        Alcotest.test_case "solve" `Quick test_block5_solve;
        Alcotest.test_case "gauss-jordan inverse" `Quick
          test_block5_gauss_jordan_inverse;
        Alcotest.test_case "of_rows" `Quick test_block5_of_rows ] );
    ( "solvers.btridiag",
      [ Alcotest.test_case "solve, several sizes" `Quick
          test_btridiag_solve_sizes;
        Alcotest.test_case "AD gradient vs finite diff" `Quick
          test_ad_through_btridiag ] );
    ( "solvers.pentadiag",
      [ Alcotest.test_case "solve, several sizes" `Quick
          test_pentadiag_solve_sizes ] );
    ( "solvers.dcomplex",
      [ Alcotest.test_case "add/scale" `Quick test_dcomplex_add_scale ] );
    ( "solvers.fft",
      [ Alcotest.test_case "matches naive DFT" `Quick test_fft_matches_dft;
        Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
        Alcotest.test_case "delta" `Quick test_fft_delta;
        Alcotest.test_case "subrange pencil" `Quick test_fft_subrange;
        Alcotest.test_case "bad size" `Quick test_fft_bad_size;
        Alcotest.test_case "AD gradient vs finite diff" `Quick
          test_ad_through_fft ] );
    ( "solvers.generated",
      [ Alcotest.test_case "block5 = generic, bitwise" `Quick
          test_generated_block5;
        Alcotest.test_case "btridiag = generic, bitwise" `Quick
          test_generated_btridiag;
        Alcotest.test_case "pentadiag = generic, bitwise" `Quick
          test_generated_pentadiag;
        Alcotest.test_case "dcomplex = generic, bitwise" `Quick
          test_generated_dcomplex;
        Alcotest.test_case "fft = generic, bitwise" `Quick
          test_generated_fft ] ) ]
