(* FT — 3-D Fast Fourier Transform PDE solver (NPB kernel, class S:
   64^3 grid, 6 iterations).

   The frequency-domain signal [y] (NPB's u0) is evolved each iteration
   by the exponential factors, inverse-transformed into a work grid, and
   reduced to a complex checksum that is appended to [sums].

   Storage is NPB's padded layout: a [64][64][65] array of dcomplex
   cells with the x-dimension padded by one — 266240 elements of which
   the 4096 cells of the padding plane never participate (the paper's
   Fig. 8; "due to imperfect coding").

   Checkpoint variables (Table I): dcomplex y[64][64][65],
   dcomplex sums[6], int kt.  The random initial state and the twiddle
   factors are reconstructed deterministically at create time and enter
   AD mode as constants, exactly like CG's matrix.

   The FFT's work data is interleaved scalars, not dcomplex cells: the
   work grid [w] holds 2 * 266240 scalars (cell o's real part at 2o,
   its imaginary part at 2o+1) and the gather buffer [pencil] 2 * 64,
   the layout {!Scvad_solvers.Fft} transforms.  Over plain floats both
   are flat float arrays and a butterfly allocates nothing. *)

let n1 = 64 (* x extent (plus 1 padding) *)
let n2 = 64 (* y extent *)
let n3 = 64 (* z extent *)
let xpad = n1 + 1
let ntotal = n1 * n2 * n3
let cells = n3 * n2 * xpad (* 266240 stored cells *)
let niter = 6
let alpha = 1e-6

let idx z y x = (((z * n2) + y) * xpad) + x

(* Signed frequency of index i on an n-point axis. *)
let freq n i = if i < n / 2 then i else i - n

module Make_generic (S : Scvad_ad.Scalar.S) = struct
  type scalar = S.t

  module C = Scvad_solvers.Dcomplex.Make (S)
  module F = Scvad_solvers.Fft.Make (S)
  module Ff = Scvad_float.Fft.Make

  type state = {
    y : C.t array; (* [64][64][65] frequency-domain signal *)
    sums : C.t array; (* per-iteration checksums *)
    twiddle : float array; (* evolution factors, constant data *)
    w : S.t array; (* interleaved work grid for the inverse transform *)
    pencil : S.t array; (* interleaved gather buffer for FFT pencils *)
    mutable iter_done : int;
  }

  (* Initial condition: NPB's compute_initial_conditions (a vranlc
     random field) followed by a forward 3-D FFT — all in plain floats
     on an interleaved grid, entering the state as constants. *)
  let initial_frequency_field () =
    let grid = Array.make (2 * cells) 0. in
    let rng = Scvad_nprand.Nprand.create Scvad_nprand.Nprand.cg_seed in
    for z = 0 to n3 - 1 do
      for y = 0 to n2 - 1 do
        (* A row's 64 cells are 128 contiguous slots, real part first:
           the order the stream fills them in. *)
        Scvad_nprand.Nprand.vranlc rng ~a:Scvad_nprand.Nprand.default_mult
          (2 * n1) grid
          (2 * idx z y 0)
      done
    done;
    (* Forward 3-D FFT, dimension by dimension (gather strided
       pencils). *)
    let tmp = Array.make (2 * n1) 0. in
    let do_dim ~count ~base_of ~stride ~n =
      let plan = Ff.plan ~sign:(-1.) ~n in
      for p = 0 to count - 1 do
        let base = base_of p in
        for q = 0 to n - 1 do
          let c = 2 * (base + (q * stride)) in
          tmp.(2 * q) <- grid.(c);
          tmp.((2 * q) + 1) <- grid.(c + 1)
        done;
        Ff.run plan tmp ~off:0;
        for q = 0 to n - 1 do
          let c = 2 * (base + (q * stride)) in
          grid.(c) <- tmp.(2 * q);
          grid.(c + 1) <- tmp.((2 * q) + 1)
        done
      done
    in
    do_dim ~count:(n3 * n2) ~base_of:(fun p -> p * xpad) ~stride:1 ~n:n1;
    do_dim ~count:(n3 * n1)
      ~base_of:(fun p -> ((p / n1) * n2 * xpad) + (p mod n1))
      ~stride:xpad ~n:n2;
    do_dim ~count:(n2 * n1)
      ~base_of:(fun p -> p)
      ~stride:(n2 * xpad) ~n:n3;
    grid

  let make_twiddle () =
    let t = Array.make cells 1. in
    let ap = -4. *. alpha *. Float.pi *. Float.pi in
    for z = 0 to n3 - 1 do
      for y = 0 to n2 - 1 do
        for x = 0 to n1 - 1 do
          let kx = float_of_int (freq n1 x)
          and ky = float_of_int (freq n2 y)
          and kz = float_of_int (freq n3 z) in
          t.(idx z y x) <- exp (ap *. ((kx *. kx) +. (ky *. ky) +. (kz *. kz)))
        done
      done
    done;
    t

  let create () =
    let init = initial_frequency_field () in
    let y =
      Array.init cells (fun o -> C.of_floats init.(2 * o) init.((2 * o) + 1))
    in
    {
      y;
      sums = Array.make niter C.zero;
      twiddle = make_twiddle ();
      w = Array.make (2 * cells) S.zero;
      pencil = Array.make (2 * max n1 (max n2 n3)) S.zero;
      iter_done = 0;
    }

  (* Inverse 3-D FFT of the work grid (unnormalized, like NPB's
     fft(-1); the checksum divides by NTOTAL). *)
  let inverse_fft3 st =
    let do_dim ~count ~base_of ~stride ~n =
      let plan = F.plan ~sign:1. ~n in
      for p = 0 to count - 1 do
        let base = base_of p in
        for q = 0 to n - 1 do
          let c = 2 * (base + (q * stride)) in
          st.pencil.(2 * q) <- st.w.(c);
          st.pencil.((2 * q) + 1) <- st.w.(c + 1)
        done;
        F.run plan st.pencil ~off:0;
        for q = 0 to n - 1 do
          let c = 2 * (base + (q * stride)) in
          st.w.(c) <- st.pencil.(2 * q);
          st.w.(c + 1) <- st.pencil.((2 * q) + 1)
        done
      done
    in
    do_dim ~count:(n3 * n2) ~base_of:(fun p -> p * xpad) ~stride:1 ~n:n1;
    do_dim ~count:(n3 * n1)
      ~base_of:(fun p -> ((p / n1) * n2 * xpad) + (p mod n1))
      ~stride:xpad ~n:n2;
    do_dim ~count:(n2 * n1)
      ~base_of:(fun p -> p)
      ~stride:(n2 * xpad) ~n:n3

  let step st =
    (* evolve: y *= twiddle, and the work grid takes a copy. *)
    for z = 0 to n3 - 1 do
      for yy = 0 to n2 - 1 do
        for x = 0 to n1 - 1 do
          let o = idx z yy x in
          let evolved = C.scale (S.of_float st.twiddle.(o)) st.y.(o) in
          st.y.(o) <- evolved;
          st.w.(2 * o) <- C.re evolved;
          st.w.((2 * o) + 1) <- C.im evolved
        done
      done
    done;
    inverse_fft3 st;
    (* checksum over 1024 scrambled cells (NPB checksum). *)
    let acc = ref C.zero in
    for j = 1 to 1024 do
      let q = j mod n1 and r = 3 * j mod n2 and s = 5 * j mod n3 in
      let o = 2 * idx s r q in
      acc := C.add !acc (C.make st.w.(o) st.w.(o + 1))
    done;
    let chk = C.scale (S.of_float (1. /. float_of_int ntotal)) !acc in
    (* NPB accumulates (each MPI rank adds its partial sum), so sums[i]
       is read-modify-write — which is exactly why every element of the
       checkpointed sums is critical at every checkpoint boundary. *)
    if st.iter_done < niter then
      st.sums.(st.iter_done) <- C.add st.sums.(st.iter_done) chk

  let run st ~from ~until =
    for _ = from to until - 1 do
      step st;
      st.iter_done <- st.iter_done + 1
    done

  let iterations_done st = st.iter_done

  (* Verification output: the aggregate of all per-iteration checksums
     (NPB prints and verifies each). *)
  let output st =
    Array.fold_left
      (fun acc c -> S.(acc +. C.re c +. C.im c))
      S.zero st.sums

  (* Span accessors of a dcomplex array: cell e is packed at slots
     2(e - lo) and 2(e - lo) + 1 from [off]; a write builds one cell per
     element. *)
  let read_cells (a : C.t array) lo hi (dst : S.t array) off =
    for e = lo to hi - 1 do
      let o = off + (2 * (e - lo)) in
      dst.(o) <- C.re a.(e);
      dst.(o + 1) <- C.im a.(e)
    done

  let write_cells (a : C.t array) lo hi (src : S.t array) off =
    for e = lo to hi - 1 do
      let o = off + (2 * (e - lo)) in
      a.(e) <- C.make src.(o) src.(o + 1)
    done

  let float_vars st =
    let open Scvad_core.Variable in
    [ (* guard: assume smooth y — the Fft/Dcomplex modules do fixed-shape
         butterflies whose twiddle indices are iteration constants: no
         value-dependent control flow in the leaked calls *)
      make ~name:"y"
        ~doc:"frequency-domain signal (x padded to 65; dcomplex cells)"
        ~shape:(Scvad_nd.Shape.create [ n3; n2; xpad ])
        ~spe:2 ~fill:S.zero ~read:(read_cells st.y) ~write:(write_cells st.y)
        ();
      (* guard: assume smooth sums — checksum accumulation is a plain
         dcomplex sum; only Dcomplex arithmetic is leaked *)
      make ~name:"sums" ~doc:"per-iteration checksums (dcomplex)"
        ~shape:(Scvad_nd.Shape.create [ niter ])
        ~spe:2 ~fill:S.zero ~read:(read_cells st.sums)
        ~write:(write_cells st.sums) () ]

  let int_vars st =
    [ Scvad_core.Variable.int_scalar ~name:"kt" ~doc:"main loop index"
        ~crit:(Scvad_core.Variable.Always_critical "main loop index")
        ~get:(fun () -> st.iter_done)
        ~set:(fun v -> st.iter_done <- v) ]
end

module App : Scvad_core.App.S = struct
  let name = "ft"
  let description = "3-D FFT PDE solver (class S)"
  let default_niter = niter
  let analysis_niter = 1
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_generic (S)
  module Float = Scvad_float.Ft.Make_generic
end
