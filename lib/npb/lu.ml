(* LU — Lower-Upper symmetric Gauss-Seidel solver (NPB kernel).

   SSOR-style time stepping on the class-S 12x12x12 grid.  Each
   iteration:

   1. builds a new residual [rsd] from the previous residual (7-point
      stencil, all five components), the coefficient fields [rho_i] and
      [qs] (center + neighbours), the first four solution components
      (7-point stencils), and the energy component u[.][4] through
      {e directional flux sweeps only} — x-differences at k,j in 1..10,
      y-differences at k,i in 1..10, z-differences at j,i in 1..10.
      That last read set is the union the paper visualizes in Fig. 7:
      1600 critical elements, 428 uncritical;
   2. applies the under-relaxed update u += tsor * rsd on the interior;
   3. re-derives the coefficient fields with under-relaxation (rho_i is
      "the relaxation factor" in the paper's wording):
      rho_i <- (1-w) rho_i + w / u0 and qs <- (1-w) qs + w q(u), reading
      every active element of both fields;
   4. final verification: rhs_norm over all five rsd components plus
      error_norm over u components 0..3 only (the energy component is
      verified through the residual, not the error norm — this is what
      distinguishes u[.][4]'s pattern from u[.][0..3]'s).

   Checkpoint variables (Table I): u[12][13][13][5],
   rho_i[12][13][13], qs[12][13][13], rsd[12][13][13][5], int istep. *)

module Make_sized (G : Adi_common.GRID) (S : Scvad_ad.Scalar.S) = struct
  module A = Adi_common.Dims (G)
  type scalar = S.t

  module C = Adi_common.Make_sized (G) (S)

  let dt = 0.5 (* SSOR pseudo-time step *)
  let omega = 0.8 (* relaxation factor of the coefficient updates *)

  type state = {
    u : S.t array; (* [12][13][13][5] *)
    rho_i : S.t array; (* [12][13][13] *)
    qs : S.t array; (* [12][13][13] *)
    rsd : S.t array; (* [12][13][13][5] *)
    tmp : S.t array; (* work array for the new residual *)
    mutable iter_done : int;
  }

  let derive_rho st k j i = S.(one /. st.u.(A.idx k j i 0))

  let derive_qs st k j i =
    let u1 = st.u.(A.idx k j i 1)
    and u2 = st.u.(A.idx k j i 2)
    and u3 = st.u.(A.idx k j i 3) in
    S.(
      of_float 0.5
      *. ((u1 *. u1) +. (u2 *. u2) +. (u3 *. u3))
      *. (one /. st.u.(A.idx k j i 0)))

  let create () =
    let u = Array.make A.total S.zero in
    C.initialize u;
    let st =
      {
        u;
        rho_i = Array.make A.total3 S.zero;
        qs = Array.make A.total3 S.zero;
        rsd = Array.make A.total S.zero;
        tmp = Array.make A.total S.zero;
        iter_done = 0;
      }
    in
    for k = 0 to A.grid - 1 do
      for j = 0 to A.grid - 1 do
        for i = 0 to A.grid - 1 do
          st.rho_i.(A.idx3 k j i) <- derive_rho st k j i;
          st.qs.(A.idx3 k j i) <- derive_qs st k j i
        done
      done
    done;
    (* Initial residual: interior from the rhs stencil; the boundary
       shell carries small nonzero entries (as a converged run's
       residual would) so the final norm has nonzero slope there. *)
    C.compute_rhs ~dt st.u st.rsd;
    for k = 0 to A.grid - 1 do
      for j = 0 to A.grid - 1 do
        for i = 0 to A.grid - 1 do
          if k = 0 || k = A.grid - 1 || j = 0 || j = A.grid - 1 || i = 0 || i = A.grid - 1
          then
            for m = 0 to A.ncomp - 1 do
              let o = A.idx k j i m in
              st.rsd.(o) <- S.of_float (1e-6 *. (1.5 +. Stdlib.sin (float_of_int o)))
            done
        done
      done
    done;
    st

  (* New residual at the interior (writes st.tmp). *)
  let build_residual st =
    let d = S.of_float (dt *. 0.2) in
    let cpl = S.of_float (dt *. 0.02) in
    let fx = S.of_float (dt *. 0.05) in
    Array.fill st.tmp 0 (Array.length st.tmp) S.zero;
    for k = 1 to A.grid - 2 do
      for j = 1 to A.grid - 2 do
        for i = 1 to A.grid - 2 do
          (* coefficient fields: center + the six face neighbours *)
          let coeff =
            S.(
              st.rho_i.(A.idx3 k j i)
              +. (of_float 0.1
                  *. (st.rho_i.(A.idx3 k j (i - 1))
                     +. st.rho_i.(A.idx3 k j (i + 1))
                     +. st.rho_i.(A.idx3 k (j - 1) i)
                     +. st.rho_i.(A.idx3 k (j + 1) i)
                     +. st.rho_i.(A.idx3 (k - 1) j i)
                     +. st.rho_i.(A.idx3 (k + 1) j i))))
          in
          let pressure =
            S.(
              st.qs.(A.idx3 k j i)
              +. (of_float 0.1
                  *. (st.qs.(A.idx3 k j (i - 1))
                     +. st.qs.(A.idx3 k j (i + 1))
                     +. st.qs.(A.idx3 k (j - 1) i)
                     +. st.qs.(A.idx3 k (j + 1) i)
                     +. st.qs.(A.idx3 (k - 1) j i)
                     +. st.qs.(A.idx3 (k + 1) j i))))
          in
          for m = 0 to A.ncomp - 1 do
            (* previous residual: 7-point stencil, every component *)
            let rlap =
              S.(
                st.rsd.(A.idx k j (i - 1) m)
                +. st.rsd.(A.idx k j (i + 1) m)
                +. st.rsd.(A.idx k (j - 1) i m)
                +. st.rsd.(A.idx k (j + 1) i m)
                +. st.rsd.(A.idx (k - 1) j i m)
                +. st.rsd.(A.idx (k + 1) j i m)
                -. (of_float 6. *. st.rsd.(A.idx k j i m)))
            in
            let solution_term =
              if m < 4 then
                (* components 0..3: full 7-point stencil on u[m] *)
                S.(
                  st.u.(A.idx k j (i - 1) m)
                  +. st.u.(A.idx k j (i + 1) m)
                  +. st.u.(A.idx k (j - 1) i m)
                  +. st.u.(A.idx k (j + 1) i m)
                  +. st.u.(A.idx (k - 1) j i m)
                  +. st.u.(A.idx (k + 1) j i m)
                  -. (of_float 6. *. st.u.(A.idx k j i m)))
              else
                (* the energy component is touched only through the
                   three directional flux differences (Fig. 7's union
                   of sweep ranges) *)
                S.(
                  fx
                  *. ((st.u.(A.idx k j (i + 1) 4) -. st.u.(A.idx k j (i - 1) 4))
                     +. (st.u.(A.idx k (j + 1) i 4) -. st.u.(A.idx k (j - 1) i 4))
                     +. (st.u.(A.idx (k + 1) j i 4) -. st.u.(A.idx (k - 1) j i 4))
                     +. st.u.(A.idx k j i 4)))
            in
            let coupling = S.(cpl *. st.u.(A.idx k j i ((m + 1) mod 4))) in
            (* The 1/16 gain keeps the residual recurrence contractive
               (spectral radius < 1), so the SSOR iteration converges
               instead of blowing up over the 50 production steps. *)
            st.tmp.(A.idx k j i m) <-
              S.(
                (of_float 0.0625 *. rlap)
                +. (d *. solution_term *. coeff)
                +. (cpl *. pressure)
                +. coupling)
          done
        done
      done
    done

  let step st =
    build_residual st;
    (* SSOR update on the interior. *)
    let tsor = S.of_float (dt *. omega) in
    for k = 1 to A.grid - 2 do
      for j = 1 to A.grid - 2 do
        for i = 1 to A.grid - 2 do
          for m = 0 to A.ncomp - 1 do
            let o = A.idx k j i m in
            st.u.(o) <- S.(st.u.(o) +. (tsor *. st.tmp.(o)));
            st.rsd.(o) <- st.tmp.(o)
          done
        done
      done
    done;
    (* Under-relaxed, spatially smoothed refresh of the coefficient
       fields over the whole active range: every active rho_i / qs
       element is read both as a center and as a neighbour, so boundary
       values diffuse towards the interior where the residual consumes
       them. *)
    let w = S.of_float omega and w1 = S.of_float (1. -. omega) in
    let sigma = S.of_float 0.05 in
    let smooth (field : S.t array) k j i =
      (* Average of the in-range neighbours minus the center. *)
      let acc = ref S.zero and n = ref 0 in
      let look k' j' i' =
        if
          k' >= 0 && k' < A.grid && j' >= 0 && j' < A.grid && i' >= 0
          && i' < A.grid
        then begin
          acc := S.(!acc +. field.(A.idx3 k' j' i'));
          incr n
        end
      in
      look (k - 1) j i;
      look (k + 1) j i;
      look k (j - 1) i;
      look k (j + 1) i;
      look k j (i - 1);
      look k j (i + 1);
      S.((!acc /. of_int !n) -. field.(A.idx3 k j i))
    in
    let new_rho = Array.make A.total3 S.zero in
    let new_qs = Array.make A.total3 S.zero in
    for k = 0 to A.grid - 1 do
      for j = 0 to A.grid - 1 do
        for i = 0 to A.grid - 1 do
          let o3 = A.idx3 k j i in
          new_rho.(o3) <-
            S.(
              (w1 *. st.rho_i.(o3))
              +. (w *. derive_rho st k j i)
              +. (sigma *. smooth st.rho_i k j i));
          new_qs.(o3) <-
            S.(
              (w1 *. st.qs.(o3))
              +. (w *. derive_qs st k j i)
              +. (sigma *. smooth st.qs k j i))
        done
      done
    done;
    Array.blit new_rho 0 st.rho_i 0 A.total3;
    Array.blit new_qs 0 st.qs 0 A.total3

  let run st ~from ~until =
    for _ = from to until - 1 do
      step st;
      st.iter_done <- st.iter_done + 1
    done

  let iterations_done st = st.iter_done

  (* Verification: residual norms (all five components) + error norms of
     the first four solution components. *)
  let output st =
    let rn = C.rhs_norm st.rsd in
    let en = C.error_norm ~mmax:4 st.u in
    S.(C.sum rn +. C.sum en)

  let float_vars st =
    let open Scvad_core.Variable in
    [ (* guard: assume smooth u — the Block5 lower/upper sweeps are
         straight-line Scalar.S arithmetic with fixed index ranges *)
      of_array ~name:"u" ~doc:"solution of the nonlinear PDE system"
        (Lazy.force A.shape4) st.u;
      (* guard: assume smooth rho_i — consumed only by smooth flux
         arithmetic and the leaked straight-line solver sweeps *)
      of_array ~name:"rho_i" ~doc:"relaxation factor of the SSOR method"
        (Lazy.force A.shape3) st.rho_i;
      (* guard: assume smooth qs — consumed only by smooth flux
         arithmetic and the leaked straight-line solver sweeps *)
      of_array ~name:"qs" ~doc:"flux-difference (dynamic pressure) field"
        (Lazy.force A.shape3) st.qs;
      (* guard: assume smooth rsd — the SSOR residual update and the
         leaked Block5 sweeps are data-oblivious Scalar.S arithmetic *)
      of_array ~name:"rsd" ~doc:"running residual of the SSOR iteration"
        (Lazy.force A.shape4) st.rsd ]

  let int_vars st =
    [ Scvad_core.Variable.int_scalar ~name:"istep" ~doc:"main loop index"
        ~crit:(Scvad_core.Variable.Always_critical "main loop index")
        ~get:(fun () -> st.iter_done)
        ~set:(fun v -> st.iter_done <- v) ]
end

module Make_generic (S : Scvad_ad.Scalar.S) = Make_sized (Adi_common.Class_s_grid) (S)

module App : Scvad_core.App.S = struct
  let name = "lu"
  let description = "Lower-Upper symmetric Gauss-Seidel solver (class S)"
  let default_niter = 50

  (* Three iterations: a corner value of the coefficient fields needs
     two smoothing hops (corner -> edge -> face) before the residual of
     the following iteration consumes it. *)
  let analysis_niter = 3
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_generic (S)
  module Float = Scvad_float.Lu.Make_generic
end

(* NPB class-W problem size: the scaling study. *)
module App_w : Scvad_core.App.S = struct
  let name = "lu-w"
  let description = "Lower-Upper symmetric Gauss-Seidel solver (class W, 33^3)"
  let default_niter = 300
  let analysis_niter = 3
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_sized (Adi_common.Lu_w_grid) (S)
  module Float = Scvad_float.Lu.Make_sized (Adi_common.Lu_w_grid)
end
