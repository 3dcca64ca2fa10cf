(* BT — Block Tri-diagonal solver (NPB kernel).

   Alternating-direction implicit time stepping: each step computes the
   right-hand side from the current solution and performs three implicit
   line sweeps (x, y, z), each solving a block-tridiagonal system with
   5x5 blocks per interior line, then adds the update to u.  After the
   last step, error_norm and rhs_norm (paper Fig. 2) reduce the state to
   the verification output.

   Checkpoint variables (paper Table I): double u[12][13][13][5] and
   int step.  The analysis finds the Fig. 3 pattern: 1500 uncritical
   elements on the padded planes j = 12 and i = 12. *)

module Make_sized (G : Adi_common.GRID) (S : Scvad_ad.Scalar.S) = struct
  module A = Adi_common.Dims (G)
  type scalar = S.t

  module C = Adi_common.Make_sized (G) (S)
  module B5 = Scvad_solvers.Block5.Make (S)
  module BT = Scvad_solvers.Btridiag.Make (S)

  let dt = 0.01 (* class-S time step *)

  type state = {
    u : S.t array; (* [12][13][13][5]; checkpoint variable *)
    rhs : S.t array; (* work array *)
    mutable iter_done : int;
  }

  let create () =
    let u = Array.make A.total S.zero in
    C.initialize u;
    { u; rhs = Array.make A.total S.zero; iter_done = 0 }

  (* The u-dependent off-diagonal coupling of the line Jacobian: a small
     5x5 matrix built from the five components at one grid point. *)
  let coupling_block (u : S.t array) off =
    let eps = S.of_float (dt *. 0.02) in
    let m = B5.zero () in
    for r = 0 to 4 do
      for c = 0 to 4 do
        B5.set m r c S.(eps *. u.(off + ((r + c) mod 5)))
      done
    done;
    m

  let diag_add m x =
    for r = 0 to 4 do
      B5.set m r r S.(B5.get m r r +. x)
    done

  (* Solve one implicit line of [A.grid] points along direction [dir]
     (0 = i, 1 = j, 2 = k) at fixed transverse coordinates (t1, t2);
     line offsets are produced by [off_at].  The solved correction
     overwrites the rhs line. *)
  let line_solve st ~off_at =
    let n = A.grid in
    let d = S.of_float (dt *. 0.5) in
    let a = Array.init n (fun p -> coupling_block st.u (off_at p)) in
    let b = Array.init n (fun p -> coupling_block st.u (off_at p)) in
    let c = Array.init n (fun p -> coupling_block st.u (off_at p)) in
    let r =
      Array.init n (fun p ->
          Array.init 5 (fun m -> st.rhs.(off_at p + m)))
    in
    for p = 0 to n - 1 do
      diag_add b.(p) S.(one +. (of_float 2. *. d));
      diag_add a.(p) S.(~-.d);
      diag_add c.(p) S.(~-.d)
    done;
    BT.solve ~a ~b ~c ~r;
    for p = 0 to n - 1 do
      for m = 0 to 4 do
        st.rhs.(off_at p + m) <- r.(p).(m)
      done
    done

  let x_solve st =
    for k = 1 to A.grid - 2 do
      for j = 1 to A.grid - 2 do
        line_solve st ~off_at:(fun i -> A.idx k j i 0)
      done
    done

  let y_solve st =
    for k = 1 to A.grid - 2 do
      for i = 1 to A.grid - 2 do
        line_solve st ~off_at:(fun j -> A.idx k j i 0)
      done
    done

  let z_solve st =
    for j = 1 to A.grid - 2 do
      for i = 1 to A.grid - 2 do
        line_solve st ~off_at:(fun k -> A.idx k j i 0)
      done
    done

  (* u += correction over the interior (NPB's add.c). *)
  let add st =
    for k = 1 to A.grid - 2 do
      for j = 1 to A.grid - 2 do
        for i = 1 to A.grid - 2 do
          for m = 0 to 4 do
            let o = A.idx k j i m in
            st.u.(o) <- S.(st.u.(o) +. st.rhs.(o))
          done
        done
      done
    done

  let step st =
    C.compute_rhs ~dt st.u st.rhs;
    x_solve st;
    y_solve st;
    z_solve st;
    add st

  let run st ~from ~until =
    for _ = from to until - 1 do
      step st;
      st.iter_done <- st.iter_done + 1
    done

  let iterations_done st = st.iter_done

  (* Verification output: error norms against the exact solution plus
     the norms of a freshly computed residual. *)
  let output st =
    let err = C.error_norm st.u in
    C.compute_rhs ~dt st.u st.rhs;
    let rhs = C.rhs_norm st.rhs in
    S.(C.sum err +. C.sum rhs)

  let float_vars st =
    [ (* guard: assume smooth u — the Block5/Btridiag solver modules are
         straight-line Scalar.S arithmetic: fixed index ranges, no
         data-dependent branching, so the leaked flow is smooth *)
      Scvad_core.Variable.of_array ~name:"u"
        ~doc:"solution of the nonlinear PDE system (padded to 13 in j and i)"
        (Lazy.force A.shape4) st.u ]

  let int_vars st =
    [ Scvad_core.Variable.int_scalar ~name:"step" ~doc:"main loop index"
        ~crit:(Scvad_core.Variable.Always_critical "main loop index")
        ~get:(fun () -> st.iter_done)
        ~set:(fun v -> st.iter_done <- v) ]
end

module Make_generic (S : Scvad_ad.Scalar.S) = Make_sized (Adi_common.Class_s_grid) (S)

module App : Scvad_core.App.S = struct
  let name = "bt"
  let description = "Block Tri-diagonal ADI solver (class S)"
  let default_niter = 60
  let analysis_niter = 1
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_generic (S)
  module Float = Scvad_float.Bt.Make_generic
end

(* NPB class-W problem size: the scaling study. *)
module App_w : Scvad_core.App.S = struct
  let name = "bt-w"
  let description = "Block Tri-diagonal ADI solver (class W, 24^3)"
  let default_niter = 200
  let analysis_niter = 1
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_sized (Adi_common.Bt_w_grid) (S)
  module Float = Scvad_float.Bt.Make_sized (Adi_common.Bt_w_grid)
end
