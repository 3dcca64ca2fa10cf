(* SP — Scalar Penta-diagonal solver (NPB kernel).

   Structurally BT's sibling (same grid, same ADI sweep pattern, same
   error_norm — the paper finds the identical Fig. 3 pattern in u): the
   implicit line systems factor into five independent scalar
   pentadiagonal solves per line instead of one 5x5 block-tridiagonal
   system.

   Checkpoint variables (Table I): double u[12][13][13][5], int step. *)

module Make_sized (G : Adi_common.GRID) (S : Scvad_ad.Scalar.S) = struct
  module A = Adi_common.Dims (G)
  type scalar = S.t

  module C = Adi_common.Make_sized (G) (S)
  module P = Scvad_solvers.Pentadiag.Make (S)

  let dt = 0.015 (* class-S time step *)

  type state = {
    u : S.t array; (* checkpoint variable *)
    rhs : S.t array;
    mutable iter_done : int;
  }

  let create () =
    let u = Array.make A.total S.zero in
    C.initialize u;
    { u; rhs = Array.make A.total S.zero; iter_done = 0 }

  (* Solve the five scalar pentadiagonal systems of one line.  Band
     coefficients depend on the local solution value (the nonlinear
     "scalar" factorization SP is named for). *)
  let line_solve st ~off_at =
    let n = A.grid in
    let dv = dt *. 0.5 in
    let base = S.of_float (1. +. (2.5 *. dv)) in
    let cdiag = S.of_float (dv *. 0.01) in
    let coff = S.of_float (dv *. 0.005) in
    let band = S.of_float (-.dv) in
    let wing = S.of_float (-.dv /. 8.) in
    for m = 0 to 4 do
      let e = Array.make n wing in
      let f = Array.make n wing in
      let a = Array.init n (fun p -> S.(band -. (coff *. st.u.(off_at p + m)))) in
      let c = Array.init n (fun p -> S.(band +. (coff *. st.u.(off_at p + m)))) in
      let d = Array.init n (fun p -> S.(base +. (cdiag *. st.u.(off_at p + m)))) in
      let r = Array.init n (fun p -> st.rhs.(off_at p + m)) in
      P.solve ~e ~a ~d ~c ~f ~r;
      for p = 0 to n - 1 do
        st.rhs.(off_at p + m) <- r.(p)
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

  let output st =
    let err = C.error_norm st.u in
    C.compute_rhs ~dt st.u st.rhs;
    let rhs = C.rhs_norm st.rhs in
    S.(C.sum err +. C.sum rhs)

  let float_vars st =
    [ (* guard: assume smooth u — the Pentadiag solver module is
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
  let name = "sp"
  let description = "Scalar Penta-diagonal ADI solver (class S)"
  let default_niter = 100
  let analysis_niter = 1
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_generic (S)
  module Float = Scvad_float.Sp.Make_generic
end

(* NPB class-W problem size: the scaling study. *)
module App_w : Scvad_core.App.S = struct
  let name = "sp-w"
  let description = "Scalar Penta-diagonal ADI solver (class W, 36^3)"
  let default_niter = 400
  let analysis_niter = 1
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_sized (Adi_common.Sp_w_grid) (S)
  module Float = Scvad_float.Sp.Make_sized (Adi_common.Sp_w_grid)
end
