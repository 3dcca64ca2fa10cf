(* EP — Embarrassingly Parallel (NPB kernel, class S: 2^24 Gaussian
   pairs).

   Generates pairs of uniform deviates in batches of 2^17, converts
   accepted pairs to independent Gaussian deviates by Marsaglia's polar
   method, and accumulates the sums [sx], [sy] and the annulus counts
   [q].  Each batch jumps to its own position in the randlc stream
   (NPB's ipow46 seed arithmetic), so a restarted run regenerates the
   identical stream from any batch boundary.

   Checkpoint variables (Table I): double sx, double sy, double q[10],
   double buffer[2*nk], int k.  sx/sy/q are read-modify-write
   accumulators whose checkpointed value flows straight into the final
   verification sums (paper §IV-B), so every element is critical.
   [buffer] is the per-batch scratch of uniform deviates: each batch
   regenerates it in full with [vranlc] before reading it, so its
   checkpointed value is dead on restart — the static activity pass
   proves this (kill-before-read) and the analyzer's fast path skips
   lifting it. *)

let m = 24 (* class S: 2^m random pairs *)
let mk = 16 (* batch exponent: 2^mk pairs per batch *)
let nn = 1 lsl (m - mk) (* 256 batches — the main loop *)
let nk = 1 lsl mk
let nq = 10

module Make_generic (S : Scvad_ad.Scalar.S) = struct
  type scalar = S.t

  type state = {
    mutable sx : S.t;
    mutable sy : S.t;
    q : S.t array;
    buffer : float array; (* uniform deviates of the current batch *)
    mutable iter_done : int;
  }

  let create () =
    {
      sx = S.zero;
      sy = S.zero;
      q = Array.make nq S.zero;
      buffer = Array.make (2 * nk) 0.;
      iter_done = 0;
    }

  (* One batch: jump the stream, then consume 2^mk candidate pairs. *)
  let batch st k =
    let rng = Scvad_nprand.Nprand.create Scvad_nprand.Nprand.ep_seed in
    (* Advance to this batch's segment: seed * a^(2*nk*k) mod 2^46. *)
    if k > 0 then begin
      let jump = Scvad_nprand.Nprand.ipow46 Scvad_nprand.Nprand.default_mult (2 * nk * k) in
      ignore (Scvad_nprand.Nprand.randlc rng ~a:jump)
    end;
    Scvad_nprand.Nprand.vranlc rng ~a:Scvad_nprand.Nprand.default_mult (2 * nk)
      st.buffer 0;
    for i = 0 to nk - 1 do
      let x1 = (2. *. st.buffer.(2 * i)) -. 1. in
      let x2 = (2. *. st.buffer.((2 * i) + 1)) -. 1. in
      let t = (x1 *. x1) +. (x2 *. x2) in
      if t <= 1. then begin
        let t2 = sqrt (-2. *. log t /. t) in
        let g1 = x1 *. t2 and g2 = x2 *. t2 in
        let l = int_of_float (Float.max (Float.abs g1) (Float.abs g2)) in
        st.sx <- S.(st.sx +. of_float g1);
        st.sy <- S.(st.sy +. of_float g2);
        st.q.(l) <- S.(st.q.(l) +. one)
      end
    done

  let run st ~from ~until =
    for k = from to until - 1 do
      batch st k;
      st.iter_done <- st.iter_done + 1
    done

  let iterations_done st = st.iter_done

  (* Verification output: the Gaussian sums plus the annulus counts. *)
  let output st =
    let acc = ref S.(st.sx +. st.sy) in
    Array.iter (fun c -> acc := S.(!acc +. c)) st.q;
    !acc

  let float_vars st =
    let open Scvad_core.Variable in
    [ make ~name:"sx" ~doc:"sum of Gaussian deviates, X dimension"
        ~shape:Scvad_nd.Shape.scalar ~spe:1 ~fill:S.zero
        ~read:(fun lo hi dst off -> if lo < hi then dst.(off) <- st.sx)
        ~write:(fun lo hi src off -> if lo < hi then st.sx <- src.(off))
        ();
      make ~name:"sy" ~doc:"sum of Gaussian deviates, Y dimension"
        ~shape:Scvad_nd.Shape.scalar ~spe:1 ~fill:S.zero
        ~read:(fun lo hi dst off -> if lo < hi then dst.(off) <- st.sy)
        ~write:(fun lo hi src off -> if lo < hi then st.sy <- src.(off))
        ();
      of_array ~name:"q" ~doc:"annulus counts of the accepted pairs"
        (Scvad_nd.Shape.create [ nq ])
        st.q;
      make ~name:"buffer" ~doc:"uniform deviates of the current batch"
        ~shape:(Scvad_nd.Shape.create [ 2 * nk ])
        ~spe:1 ~fill:S.zero
        ~read:(fun lo hi dst off ->
          for e = lo to hi - 1 do
            dst.(off + e - lo) <- S.of_float st.buffer.(e)
          done)
        ~write:(fun lo hi src off ->
          for e = lo to hi - 1 do
            st.buffer.(e) <- S.to_float src.(off + e - lo)
          done)
        () ]

  let int_vars st =
    [ Scvad_core.Variable.int_scalar ~name:"k"
        ~doc:"main loop index (batch counter)"
        ~crit:(Scvad_core.Variable.Always_critical "main loop index")
        ~get:(fun () -> st.iter_done)
        ~set:(fun v -> st.iter_done <- v) ]
end

module App : Scvad_core.App.S = struct
  let name = "ep"
  let description = "Embarrassingly Parallel Gaussian deviates (class S)"
  let default_niter = nn
  let analysis_niter = 1
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_generic (S)
  module Float = Scvad_float.Ep.Make_generic
end
