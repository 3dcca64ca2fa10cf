(* In-place iterative radix-2 complex FFT over a generic scalar, on
   interleaved storage: complex entry [k] of an array [a] is the pair
   [a.(2k)] (real part), [a.(2k+1)] (imaginary part).

   Twiddle factors are computed once per size and direction (a {!plan})
   in plain floats and enter the computation as AD constants, so
   differentiating an FFT costs one tape node per butterfly arithmetic
   operation and nothing for the trigonometry — mirroring how Enzyme
   sees FT's precomputed exponent tables.  Each butterfly is
   straight-line scalar code: no complex value is built, so over plain
   floats the transform allocates nothing. *)

module Make (S : Scvad_ad.Scalar.S) = struct
  let is_pow2 n = n > 0 && n land (n - 1) = 0

  (* Bit-reversal permutation of entries [off .. off+n-1]. *)
  let bit_reverse (a : S.t array) off n =
    let j = ref 0 in
    for i = 0 to n - 2 do
      if i < !j then begin
        let p = 2 * (off + i) and q = 2 * (off + !j) in
        let re = a.(p) and im = a.(p + 1) in
        a.(p) <- a.(q);
        a.(p + 1) <- a.(q + 1);
        a.(q) <- re;
        a.(q + 1) <- im
      end;
      let m = ref (n lsr 1) in
      while !m >= 1 && !j land !m <> 0 do
        j := !j lxor !m;
        m := !m lsr 1
      done;
      j := !j lor !m
    done

  (* Twiddle k of the stage with half-length h sits at index h + k of
     [wr] (real part) and [wi] (imaginary part). *)
  type plan = { size : int; wr : S.t array; wi : S.t array }

  (* [sign] = -1. gives the forward transform (exp(-2πik/n) kernel),
     [sign] = +1. the unnormalized inverse. *)
  let plan ~sign ~n =
    if not (is_pow2 n) then invalid_arg "Fft.plan: n must be 2^k";
    let wr = Array.make n S.zero and wi = Array.make n S.zero in
    let half = ref 1 in
    while !half < n do
      let step = Float.pi *. sign /. float_of_int !half in
      for k = 0 to !half - 1 do
        let angle = step *. float_of_int k in
        wr.(!half + k) <- S.of_float (Stdlib.cos angle);
        wi.(!half + k) <- S.of_float (Stdlib.sin angle)
      done;
      half := !half * 2
    done;
    { size = n; wr; wi }

  (* In-place transform of the plan's entries starting at entry [off].
     The butterfly (u, b) -> (u + w·b, u - w·b) records its ten
     operations in a fixed order: w·b's imaginary part (wi·br, wr·bi,
     +), its real part (wi·bi, wr·br, -), then the sum's imaginary and
     real parts, then the difference's. *)
  let run pl (a : S.t array) ~off =
    let n = pl.size in
    bit_reverse a off n;
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      for k = 0 to half - 1 do
        let wr = pl.wr.(half + k) and wi = pl.wi.(half + k) in
        let i = ref (off + k) in
        while !i < off + n do
          let p = 2 * !i and q = 2 * (!i + half) in
          let ur = a.(p) and ui = a.(p + 1) in
          let br = a.(q) and bi = a.(q + 1) in
          let wi_br = S.(wi *. br) in
          let wr_bi = S.(wr *. bi) in
          let vi = S.(wr_bi +. wi_br) in
          let wi_bi = S.(wi *. bi) in
          let wr_br = S.(wr *. br) in
          let vr = S.(wr_br -. wi_bi) in
          a.(p + 1) <- S.(ui +. vi);
          a.(p) <- S.(ur +. vr);
          a.(q + 1) <- S.(ui -. vi);
          a.(q) <- S.(ur -. vr);
          i := !i + !len
        done
      done;
      len := !len * 2
    done

  let transform ~sign a ~off ~n = run (plan ~sign ~n) a ~off

  (* Normalized inverse: divides by n. *)
  let inverse (a : S.t array) ~off ~n =
    transform ~sign:1. a ~off ~n;
    let inv_n = S.of_float (1. /. float_of_int n) in
    for p = 2 * off to (2 * (off + n)) - 1 do
      a.(p) <- S.(inv_n *. a.(p))
    done

  let forward (a : S.t array) ~off ~n = transform ~sign:(-1.) a ~off ~n
end
