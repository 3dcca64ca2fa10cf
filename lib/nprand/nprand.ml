(* NPB pseudo-random number generator.

   Faithful port of NPB's [randlc]/[vranlc]/[ipow46]: the linear
   congruence x_{k+1} = a * x_k mod 2^46 evaluated in double precision by
   splitting operands into 23-bit halves (every intermediate stays below
   2^52, so the arithmetic is exact).  CG's matrix generator and EP's
   Gaussian-deviate stream both sit on this generator, exactly as in the
   benchmarks the paper evaluates. *)

let r23 = 0.5 ** 23.
let r46 = r23 *. r23
let t23 = 2. ** 23.
let t46 = t23 *. t23

(* NPB's canonical multiplier 5^13 and the EP/CG default seeds. *)
let default_mult = 1220703125.
let ep_seed = 271828183.
let cg_seed = 314159265.

type t = { mutable seed : float }

let create seed = { seed }
let seed t = t.seed

(* a * x mod 2^46 for a = t23 * a1 + a2, with every intermediate an
   exact integer below 2^52. *)
let[@inline] mulmod46 a1 a2 x =
  let t1 = r23 *. x in
  let x1 = Float.of_int (int_of_float t1) in
  let x2 = x -. (t23 *. x1) in
  let t1 = (a1 *. x2) +. (a2 *. x1) in
  let t2 = Float.of_int (int_of_float (r23 *. t1)) in
  let z = t1 -. (t23 *. t2) in
  let t3 = (t23 *. z) +. (a2 *. x2) in
  let t4 = Float.of_int (int_of_float (r46 *. t3)) in
  t3 -. (t46 *. t4)

let[@inline] high23 a = Float.of_int (int_of_float (r23 *. a))

(* Core step: returns a uniform deviate in (0, 1) and advances the
   seed. *)
let randlc t ~a =
  let a1 = high23 a in
  t.seed <- mulmod46 a1 (a -. (t23 *. a1)) t.seed;
  r46 *. t.seed

let next t = randlc t ~a:default_mult

(* Seed exponentiation: a^exponent in the multiplicative group mod 2^46,
   by square-and-multiply expressed through randlc (NPB's ipow46).  Used
   to jump ahead in the stream. *)
let ipow46 a exponent =
  if exponent = 0 then 1.
  else begin
    let q = create a in
    let r = create 1. in
    let n = ref exponent in
    while !n > 1 do
      let n2 = !n / 2 in
      if n2 * 2 = !n then begin
        ignore (randlc q ~a:q.seed);
        n := n2
      end
      else begin
        ignore (randlc r ~a:q.seed);
        n := !n - 1
      end
    done;
    ignore (randlc r ~a:q.seed);
    r.seed
  end

(* Fill [n] uniform deviates starting at [dst.(off)].  One step
   depends on the one before, so a serial loop waits out the whole
   multiply chain per deviate.  Instead four chains run interleaved:
   x_(k+4) = a^4 x_k mod 2^46, exact like every step, so deviate k is
   the same double as the serial stream's and the seed left behind is
   x_n.  The first four come from the serial step; they seed the
   chains. *)
let vranlc t ~a n (dst : float array) off =
  for i = off to off + min n 4 - 1 do
    dst.(i) <- randlc t ~a
  done;
  if n > 4 then begin
    let a4 = ipow46 a 4 in
    let b1 = high23 a4 in
    let b2 = a4 -. (t23 *. b1) in
    (* The head's deviates are r46 * seed, so t46 * deviate is the seed
       again, exactly (scaling by a power of two). *)
    let x0 = ref (t46 *. dst.(off)) and x1 = ref (t46 *. dst.(off + 1)) in
    let x2 = ref (t46 *. dst.(off + 2)) and x3 = ref (t46 *. dst.(off + 3)) in
    let last = off + n in
    let i = ref (off + 4) in
    while !i + 4 <= last do
      let k = !i in
      x0 := mulmod46 b1 b2 !x0;
      x1 := mulmod46 b1 b2 !x1;
      x2 := mulmod46 b1 b2 !x2;
      x3 := mulmod46 b1 b2 !x3;
      dst.(k) <- r46 *. !x0;
      dst.(k + 1) <- r46 *. !x1;
      dst.(k + 2) <- r46 *. !x2;
      dst.(k + 3) <- r46 *. !x3;
      i := k + 4
    done;
    (* Fewer than four left: chain j supplies the next deviate j. *)
    let k = !i in
    if k < last then begin
      x0 := mulmod46 b1 b2 !x0;
      dst.(k) <- r46 *. !x0
    end;
    if k + 1 < last then begin
      x1 := mulmod46 b1 b2 !x1;
      dst.(k + 1) <- r46 *. !x1
    end;
    if k + 2 < last then begin
      x2 := mulmod46 b1 b2 !x2;
      dst.(k + 2) <- r46 *. !x2
    end;
    t.seed <-
      (match (n - 1) land 3 with 0 -> !x0 | 1 -> !x1 | 2 -> !x2 | _ -> !x3)
  end
