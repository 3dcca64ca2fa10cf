(* MG — V-cycle MultiGrid solver for the 3-D discrete Poisson equation
   (NPB kernel, class S: 32^3 grid, 4 iterations).

   The solution [u] and residual [r] live in flat 46480-element arrays
   holding every grid level back to back, finest first — NPB's layout
   and the reason the paper's Fig. 4 shows "39304 continuous critical
   elements followed by 7176 continuous uncritical ones":

     level 5 (34^3 = 39304) | level 4 (18^3) | level 3 (10^3)
       | level 2 (6^3) | level 1 (4^3) | 64 slack words

   Criticality mechanics reproduced here:
   - coarse-level u is zeroed by [zero3] at the start of every V-cycle
     before any read, so only the finest 34^3 of u is critical;
   - the first consumer of the checkpointed finest r is the restriction
     [rprj3], whose full-weighting stencil reads exactly fine indices
     1..33 per dimension: 33^3 = 35937 critical elements (Fig. 5's
     repetitive pattern is this read set seen as a flat strip);
   - the right-hand side v is reconstructed deterministically at create
     time (NPB's zran3), so it is not a checkpoint variable.

   Checkpoint variables (Table I): double u[46480], double r[46480],
   int it. *)

module type CONFIG = sig
  (** finest level: grid 2^lt *)
  val lt : int

  (** flat element count of u and r (>= the sum of level volumes;
      class S pads to the paper's 46480 with 64 slack words) *)
  val nv : int

  val niter : int
end

(* The paper's configuration. *)
module Class_s : CONFIG = struct
  let lt = 5 (* 32^3 finest grid *)
  let nv = 46480
  let niter = 4
end

(* Scaled-up configuration (NPB class W: 64^3 finest grid), used to
   show the criticality pattern generalizes across problem sizes. *)
module Class_w : CONFIG = struct
  let lt = 6

  (* Exact sum of level volumes 66^3 + 34^3 + ... + 4^3, no slack. *)
  let nv = 334_408
  let niter = 4
end

(* Extent of one level including the two border planes. *)
let extent l = (1 lsl l) + 2

(* Stencil coefficients (NPB class S). *)
let a0 = -8. /. 3.

let a2 = 1. /. 6.
let a3 = 1. /. 12.
let c0 = -3. /. 8.
let c1 = 1. /. 32.
let c2 = -1. /. 64.

module Make_sized (C : CONFIG) (S : Scvad_ad.Scalar.S) = struct
  type scalar = S.t

  let lt = C.lt
  let nv = C.nv

  (* Flat offset of each level, finest first. *)
  let offsets =
    (* lint: allow domain-safety — write-once offset table, frozen before
       any read; each Make_sized instantiation (one per analysis, inside
       its own domain) builds its own copy *)
    let off = Array.make (lt + 1) 0 in
    let rec fill l pos =
      if l >= 1 then begin
        off.(l) <- pos;
        let n = extent l in
        fill (l - 1) (pos + (n * n * n))
      end
      else pos
    in
    assert (fill lt 0 <= nv);
    off

  type state = {
    u : S.t array; (* all levels; checkpoint variable *)
    r : S.t array; (* all levels; checkpoint variable *)
    v : float array; (* finest-level right-hand side (constant data) *)
    mutable iter_done : int;
  }

  let idx l i3 i2 i1 =
    let n = extent l in
    offsets.(l) + (((i3 * n) + i2) * n) + i1

  (* NPB zran3 surrogate: +1 at ten pseudo-random interior points, -1 at
     ten others, drawn from the NPB random stream. *)
  let make_v () =
    let n = extent lt in
    let v = Array.make (n * n * n) 0. in
    let rng = Scvad_nprand.Nprand.create Scvad_nprand.Nprand.cg_seed in
    let interior () =
      1 + int_of_float (Scvad_nprand.Nprand.next rng *. float_of_int (n - 2))
    in
    for s = 0 to 19 do
      let i3 = interior () and i2 = interior () and i1 = interior () in
      v.((((i3 * n) + i2) * n) + i1) <- (if s < 10 then 1. else -1.)
    done;
    v

  let zero3 (arr : S.t array) l =
    let n = extent l in
    Array.fill arr offsets.(l) (n * n * n) S.zero

  (* Periodic border exchange (NPB comm3): each border plane is
     rewritten from the opposite interior plane.  Runs after every
     producer, so coarse-level borders are always written before read —
     which is why only the finest level of the checkpointed r stays
     critical. *)
  let comm3 st (arr : S.t array) l =
    ignore st;
    let n = extent l in
    for i3 = 1 to n - 2 do
      for i2 = 1 to n - 2 do
        arr.(idx l i3 i2 0) <- arr.(idx l i3 i2 (n - 2));
        arr.(idx l i3 i2 (n - 1)) <- arr.(idx l i3 i2 1)
      done
    done;
    for i3 = 1 to n - 2 do
      for i1 = 0 to n - 1 do
        arr.(idx l i3 0 i1) <- arr.(idx l i3 (n - 2) i1);
        arr.(idx l i3 (n - 1) i1) <- arr.(idx l i3 1 i1)
      done
    done;
    for i2 = 0 to n - 1 do
      for i1 = 0 to n - 1 do
        arr.(idx l 0 i2 i1) <- arr.(idx l (n - 2) i2 i1);
        arr.(idx l (n - 1) i2 i1) <- arr.(idx l 1 i2 i1)
      done
    done

  (* r_l <- src - A u_l over the interior, where [src] reads either the
     constant v (finest) or the current r_l (coarse error equations).
     The u1/u2 helper pattern is NPB's: it reads every element of the
     level's (n)^3 box. *)
  let resid st l ~(src : int -> S.t) =
    let n = extent l in
    let u = st.u and r = st.r in
    let out = Array.make (n * n * n) S.zero in
    let ca0 = S.of_float a0 and ca2 = S.of_float a2 and ca3 = S.of_float a3 in
    let u1 = Array.make n S.zero and u2 = Array.make n S.zero in
    for i3 = 1 to n - 2 do
      for i2 = 1 to n - 2 do
        for i1 = 0 to n - 1 do
          u1.(i1) <-
            S.(
              u.(idx l i3 (i2 - 1) i1)
              +. u.(idx l i3 (i2 + 1) i1)
              +. u.(idx l (i3 - 1) i2 i1)
              +. u.(idx l (i3 + 1) i2 i1));
          u2.(i1) <-
            S.(
              u.(idx l (i3 - 1) (i2 - 1) i1)
              +. u.(idx l (i3 - 1) (i2 + 1) i1)
              +. u.(idx l (i3 + 1) (i2 - 1) i1)
              +. u.(idx l (i3 + 1) (i2 + 1) i1))
        done;
        for i1 = 1 to n - 2 do
          out.((((i3 * n) + i2) * n) + i1) <-
            S.(
              src ((((i3 * n) + i2) * n) + i1)
              -. (ca0 *. u.(idx l i3 i2 i1))
              -. (ca2 *. (u2.(i1) +. u1.(i1 - 1) +. u1.(i1 + 1)))
              -. (ca3 *. (u2.(i1 - 1) +. u2.(i1 + 1))))
        done
      done
    done;
    (* Interior write-back; borders of r_l keep their previous values. *)
    for i3 = 1 to n - 2 do
      for i2 = 1 to n - 2 do
        for i1 = 1 to n - 2 do
          r.(idx l i3 i2 i1) <- out.((((i3 * n) + i2) * n) + i1)
        done
      done
    done;
    comm3 st st.r l

  let resid_finest st =
    resid st lt ~src:(fun flat -> S.of_float st.v.(flat))

  let resid_coarse st l =
    (* Error equation: rhs is the restricted residual already in r_l.
       Snapshot it first (the stencil writes r_l in place). *)
    let n = extent l in
    let snap = Array.sub st.r offsets.(l) (n * n * n) in
    resid st l ~src:(fun flat -> snap.(flat))

  (* Smoother: u_l += S(r_l) over the interior (NPB psinv). *)
  let psinv st l =
    let n = extent l in
    let u = st.u and r = st.r in
    let cc0 = S.of_float c0 and cc1 = S.of_float c1 and cc2 = S.of_float c2 in
    let r1 = Array.make n S.zero and r2 = Array.make n S.zero in
    for i3 = 1 to n - 2 do
      for i2 = 1 to n - 2 do
        for i1 = 0 to n - 1 do
          r1.(i1) <-
            S.(
              r.(idx l i3 (i2 - 1) i1)
              +. r.(idx l i3 (i2 + 1) i1)
              +. r.(idx l (i3 - 1) i2 i1)
              +. r.(idx l (i3 + 1) i2 i1));
          r2.(i1) <-
            S.(
              r.(idx l (i3 - 1) (i2 - 1) i1)
              +. r.(idx l (i3 - 1) (i2 + 1) i1)
              +. r.(idx l (i3 + 1) (i2 - 1) i1)
              +. r.(idx l (i3 + 1) (i2 + 1) i1))
        done;
        for i1 = 1 to n - 2 do
          let o = idx l i3 i2 i1 in
          u.(o) <-
            S.(
              u.(o)
              +. (cc0 *. r.(o))
              +. (cc1 *. (r.(idx l i3 i2 (i1 - 1)) +. r.(idx l i3 i2 (i1 + 1)) +. r1.(i1)))
              +. (cc2 *. (r2.(i1) +. r1.(i1 - 1) +. r1.(i1 + 1))))
        done
      done
    done;
    comm3 st st.u l

  (* Full-weighting restriction of r from level l to level l-1 (NPB
     rprj3).  For coarse interior 1..mc-2 the fine read set is exactly
     indices 1..33 per dimension at the finest level — the paper's 33^3
     critical elements of r. *)
  let rprj3 st l =
    let lc = l - 1 in
    let mc = extent lc in
    let r = st.r in
    let w d = match abs d with 0 -> 0.125 | 1 -> 0.0625 | _ -> assert false in
    for j3 = 1 to mc - 2 do
      for j2 = 1 to mc - 2 do
        for j1 = 1 to mc - 2 do
          let acc = ref S.zero in
          for d3 = -1 to 1 do
            for d2 = -1 to 1 do
              for d1 = -1 to 1 do
                let weight = w d3 *. w d2 *. w d1 *. 8. in
                acc :=
                  S.(
                    !acc
                    +. (of_float weight
                       *. r.(idx l ((2 * j3) + d3) ((2 * j2) + d2) ((2 * j1) + d1))))
              done
            done
          done;
          r.(idx lc j3 j2 j1) <- !acc
        done
      done
    done;
    comm3 st st.r lc

  (* Trilinear prolongation: u_l += P u_{l-1} (NPB interp). *)
  let interp st l =
    let lc = l - 1 in
    let mc = extent lc in
    let u = st.u in
    for j3 = 0 to mc - 2 do
      for j2 = 0 to mc - 2 do
        for j1 = 0 to mc - 2 do
          for d3 = 0 to 1 do
            for d2 = 0 to 1 do
              for d1 = 0 to 1 do
                (* Corner average of the 2^(d3+d2+d1) coarse cells
                   bracketing the fine point. *)
                let acc = ref S.zero in
                let cnt = (1 lsl d3) * (1 lsl d2) * (1 lsl d1) in
                for e3 = 0 to d3 do
                  for e2 = 0 to d2 do
                    for e1 = 0 to d1 do
                      acc := S.(!acc +. u.(idx lc (j3 + e3) (j2 + e2) (j1 + e1)))
                    done
                  done
                done;
                let fo = idx l ((2 * j3) + d3) ((2 * j2) + d2) ((2 * j1) + d1) in
                u.(fo) <- S.(u.(fo) +. (!acc /. of_int cnt))
              done
            done
          done
        done
      done
    done

  (* One V-cycle (NPB mg3P) followed by the fresh finest residual. *)
  let step st =
    for l = lt downto 2 do
      rprj3 st l
    done;
    zero3 st.u 1;
    psinv st 1;
    for l = 2 to lt - 1 do
      zero3 st.u l;
      interp st l;
      resid_coarse st l;
      psinv st l
    done;
    interp st lt;
    resid_finest st;
    psinv st lt;
    resid_finest st

  let create () =
    let st =
      {
        u = Array.make nv S.zero;
        r = Array.make nv S.zero;
        v = make_v ();
        iter_done = 0;
      }
    in
    resid_finest st;
    st

  let run st ~from ~until =
    for _ = from to until - 1 do
      step st;
      st.iter_done <- st.iter_done + 1
    done

  let iterations_done st = st.iter_done

  (* Verification output: L2 norm of the finest residual (NPB
     norm2u3). *)
  let output st =
    let n = extent lt in
    let acc = ref S.zero in
    for i3 = 1 to n - 2 do
      for i2 = 1 to n - 2 do
        for i1 = 1 to n - 2 do
          let x = st.r.(idx lt i3 i2 i1) in
          acc := S.(!acc +. (x *. x))
        done
      done
    done;
    S.(sqrt (!acc /. of_int (n * n * n)))

  let float_vars st =
    let open Scvad_core.Variable in
    let shape = Scvad_nd.Shape.create [ nv ] in
    [ of_array ~name:"u" ~doc:"multi-level solution, finest level first" shape
        st.u;
      of_array ~name:"r" ~doc:"multi-level residual, finest level first" shape
        st.r ]

  let int_vars st =
    [ Scvad_core.Variable.int_scalar ~name:"it" ~doc:"main loop index"
        ~crit:(Scvad_core.Variable.Always_critical "main loop index")
        ~get:(fun () -> st.iter_done)
        ~set:(fun v -> st.iter_done <- v) ]
end

module Make_generic (S : Scvad_ad.Scalar.S) = Make_sized (Class_s) (S)

module App : Scvad_core.App.S = struct
  let name = "mg"
  let description = "V-cycle MultiGrid Poisson solver (class S)"
  let default_niter = Class_s.niter
  let analysis_niter = 1
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_sized (Class_s) (S)
  module Float = Scvad_float.Mg.Make_sized (Class_s)
end

module App_w : Scvad_core.App.S = struct
  let name = "mg-w"
  let description = "V-cycle MultiGrid Poisson solver (class W, 64^3)"
  let default_niter = Class_w.niter
  let analysis_niter = 1
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_sized (Class_w) (S)
  module Float = Scvad_float.Mg.Make_sized (Class_w)
end
