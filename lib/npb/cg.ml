(* CG — Conjugate Gradient (NPB kernel).

   Estimates the largest eigenvalue of a sparse symmetric matrix with a
   random pattern via inverse power iteration: each main-loop iteration
   solves A z = x with 25 steps of conjugate gradient, computes
   zeta = shift + 1/(x·z) and normalizes x = z/||z||.

   The matrix is generated exactly as NPB's [makea]: for each row a
   sparse random vector from the randlc stream ([sprnvc]), the geometric
   weight ladder (ratio = rcond^(1/n)), the outer-product accumulation,
   and the (rcond - shift) diagonal regularization.  The matrix is data
   of the program, not checkpointed state, so it lives in plain floats
   and enters AD mode as constants.

   Checkpoint variables (paper Table I): [x] of NA+2 doubles, [it].
   Arrays are 1-based like the Fortran-heritage C version — x[0] and
   x[NA+1] exist but never participate, which is exactly why the paper
   finds 2 uncritical elements (Fig. 6). *)

module type CONFIG = sig
  val na : int
  val nonzer : int
  val shift : float
  val rcond : float
  val niter : int
  val cgitmax : int
end

(* NPB class S. *)
module Class_s : CONFIG = struct
  let na = 1400
  let nonzer = 7
  let shift = 10.
  let rcond = 0.1
  let niter = 15
  let cgitmax = 25
end

(* The sparse matrix in CSR form, 1-based rows and columns. *)
type matrix = {
  n : int;
  rowstr : int array; (* length n+2; row j spans rowstr.(j) .. rowstr.(j+1)-1 *)
  colidx : int array;
  values : float array;
}

(* Smallest power of two >= n (NPB's nn1). *)
let pow2_ge n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

(* Sparse random vector with [nz] distinct nonzero locations (NPB
   sprnvc): values and locations both drawn from the randlc stream. *)
let sprnvc rng ~n ~nz =
  let nn1 = pow2_ge n in
  let v = Array.make nz 0. and iv = Array.make nz 0 in
  let mark = Hashtbl.create (2 * nz) in
  let nzv = ref 0 in
  while !nzv < nz do
    let vecelt = Scvad_nprand.Nprand.next rng in
    let vecloc = Scvad_nprand.Nprand.next rng in
    let i = int_of_float (float_of_int nn1 *. vecloc) + 1 in
    if i <= n && not (Hashtbl.mem mark i) then begin
      Hashtbl.add mark i ();
      v.(!nzv) <- vecelt;
      iv.(!nzv) <- i;
      incr nzv
    end
  done;
  (v, iv)

(* Overwrite (or append) the entry at location [i] with 0.5 (NPB
   vecset): guarantees a diagonal contribution for every row. *)
let vecset v iv ~i =
  let n = Array.length iv in
  let rec find k = if k >= n then None else if iv.(k) = i then Some k else find (k + 1) in
  match find 0 with
  | Some k ->
      v.(k) <- 0.5;
      (v, iv)
  | None ->
      (Array.append v [| 0.5 |], Array.append iv [| i |])

(* NPB makea.  The outer products come out as (row, col, x) triples,
   bucketed by row in generation order (a counting sort, so stable) and
   sorted by column within each row (an insertion sort, also stable).
   Duplicates then sum in generation order as [x +. acc] from [0.], as
   NPB's sparse() does. *)
let makea (module C : CONFIG) rng =
  let n = C.na in
  let ratio = C.rcond ** (1. /. float_of_int n) in
  (* Every vector has at most nonzer + 1 entries, then the diagonal. *)
  let cap = (n * (C.nonzer + 1) * (C.nonzer + 1)) + n in
  let rows = Array.make cap 0 and cols = Array.make cap 0 in
  let xs = Array.create_float cap in
  let len = ref 0 in
  let add irow jcol x =
    rows.(!len) <- irow;
    cols.(!len) <- jcol;
    xs.(!len) <- x;
    incr len
  in
  let size = ref 1. in
  for i = 1 to n do
    let v, iv = sprnvc rng ~n ~nz:C.nonzer in
    let v, iv = vecset v iv ~i in
    Array.iteri
      (fun ivelt jcol ->
        let scale = !size *. v.(ivelt) in
        Array.iteri (fun ivelt1 irow -> add irow jcol (v.(ivelt1) *. scale)) iv)
      iv;
    size := !size *. ratio
  done;
  (* Diagonal regularization: A + (rcond - shift) I. *)
  for i = 1 to n do
    add i i (C.rcond -. C.shift)
  done;
  let len = !len in
  (* first.(r): where row r's bucket starts; first.(n + 1) = len. *)
  let first = Array.make (n + 2) 0 in
  for t = 0 to len - 1 do
    first.(rows.(t) + 1) <- first.(rows.(t) + 1) + 1
  done;
  for r = 1 to n + 1 do
    first.(r) <- first.(r) + first.(r - 1)
  done;
  let bcol = Array.make len 0 and bx = Array.create_float len in
  let cursor = Array.copy first in
  for t = 0 to len - 1 do
    let k = cursor.(rows.(t)) in
    cursor.(rows.(t)) <- k + 1;
    bcol.(k) <- cols.(t);
    bx.(k) <- xs.(t)
  done;
  (* Per row: sort by column, then one CSR entry per distinct column. *)
  let rowstr = Array.make (n + 2) 0 in
  let colidx = Array.make len 0 and values = Array.create_float len in
  let nnz = ref 0 in
  for r = 1 to n do
    let lo = first.(r) and hi = first.(r + 1) in
    for k = lo + 1 to hi - 1 do
      let c = bcol.(k) and x = bx.(k) in
      let j = ref (k - 1) in
      while !j >= lo && bcol.(!j) > c do
        bcol.(!j + 1) <- bcol.(!j);
        bx.(!j + 1) <- bx.(!j);
        decr j
      done;
      bcol.(!j + 1) <- c;
      bx.(!j + 1) <- x
    done;
    rowstr.(r) <- !nnz;
    let k = ref lo in
    while !k < hi do
      let c = bcol.(!k) in
      let acc = ref 0. in
      while !k < hi && bcol.(!k) = c do
        acc := bx.(!k) +. !acc;
        incr k
      done;
      colidx.(!nnz) <- c;
      values.(!nnz) <- !acc;
      incr nnz
    done
  done;
  rowstr.(n + 1) <- !nnz;
  {
    n;
    rowstr;
    colidx = Array.sub colidx 0 !nnz;
    values = Array.sub values 0 !nnz;
  }

module Make_generic (C : CONFIG) (S : Scvad_ad.Scalar.S) = struct
  type scalar = S.t

  type state = {
    matrix : matrix;
    x : S.t array; (* NA+2, 1-based; checkpoint variable *)
    z : S.t array;
    p : S.t array;
    q : S.t array;
    r : S.t array;
    mutable zeta : S.t;
    mutable rnorm : S.t;
    mutable iter_done : int;
  }

  let create () =
    let rng = Scvad_nprand.Nprand.create Scvad_nprand.Nprand.cg_seed in
    (* NPB burns one deviate before makea. *)
    ignore (Scvad_nprand.Nprand.next rng);
    let matrix = makea (module C) rng in
    let len = C.na + 2 in
    {
      matrix;
      x = Array.init len (fun j -> if j >= 1 && j <= C.na then S.one else S.zero);
      z = Array.make len S.zero;
      p = Array.make len S.zero;
      q = Array.make len S.zero;
      r = Array.make len S.zero;
      zeta = S.zero;
      rnorm = S.zero;
      iter_done = 0;
    }

  (* q <- A p over rows 1..NA; matrix entries are AD constants. *)
  let spmv st (dst : S.t array) (src : S.t array) =
    let m = st.matrix in
    for j = 1 to m.n do
      let acc = ref S.zero in
      for k = m.rowstr.(j) to m.rowstr.(j + 1) - 1 do
        acc := S.(!acc +. (of_float m.values.(k) *. src.(m.colidx.(k))))
      done;
      dst.(j) <- !acc
    done

  let dot (a : S.t array) (b : S.t array) ~n =
    let acc = ref S.zero in
    for j = 1 to n do
      acc := S.(!acc +. (a.(j) *. b.(j)))
    done;
    !acc

  (* One NPB conj_grad call: 25 CG steps on A z = x, then the residual
     norm ||x - A z||. *)
  let conj_grad st =
    let n = st.matrix.n in
    for j = 1 to n do
      st.q.(j) <- S.zero;
      st.z.(j) <- S.zero;
      st.r.(j) <- st.x.(j);
      st.p.(j) <- st.x.(j)
    done;
    let rho = ref (dot st.r st.r ~n) in
    for _cgit = 1 to C.cgitmax do
      spmv st st.q st.p;
      let d = dot st.p st.q ~n in
      let alpha = S.(!rho /. d) in
      for j = 1 to n do
        st.z.(j) <- S.(st.z.(j) +. (alpha *. st.p.(j)));
        st.r.(j) <- S.(st.r.(j) -. (alpha *. st.q.(j)))
      done;
      let rho0 = !rho in
      rho := dot st.r st.r ~n;
      let beta = S.(!rho /. rho0) in
      for j = 1 to n do
        st.p.(j) <- S.(st.r.(j) +. (beta *. st.p.(j)))
      done
    done;
    spmv st st.r st.z;
    let sum = ref S.zero in
    for j = 1 to n do
      let d = S.(st.x.(j) -. st.r.(j)) in
      sum := S.(!sum +. (d *. d))
    done;
    st.rnorm <- S.sqrt !sum

  let step st =
    let n = st.matrix.n in
    conj_grad st;
    let norm_temp1 = dot st.x st.z ~n in
    let norm_temp2 = S.(one /. sqrt (dot st.z st.z ~n)) in
    st.zeta <- S.(of_float C.shift +. (one /. norm_temp1));
    for j = 1 to n do
      st.x.(j) <- S.(norm_temp2 *. st.z.(j))
    done

  let run st ~from ~until =
    for _ = from to until - 1 do
      step st;
      st.iter_done <- st.iter_done + 1
    done

  let iterations_done st = st.iter_done

  (* The verification quantity: final zeta (plus the residual norm so
     the CG solve itself is observed). *)
  let output st = S.(st.zeta +. st.rnorm)

  let float_vars st =
    [ Scvad_core.Variable.of_array ~name:"x"
        ~doc:"input vector of the linear system (1-based, x[0] and x[NA+1] unused)"
        (Scvad_nd.Shape.create [ C.na + 2 ])
        st.x ]

  let int_vars st =
    [ Scvad_core.Variable.int_scalar ~name:"it" ~doc:"main loop index"
        ~crit:(Scvad_core.Variable.Always_critical "main loop index")
        ~get:(fun () -> st.iter_done)
        ~set:(fun v -> st.iter_done <- v) ]
end

(* Class-S application (the paper's configuration). *)
module App : Scvad_core.App.S = struct
  let name = "cg"
  let description = "Conjugate Gradient, irregular memory access (class S)"
  let default_niter = Class_s.niter
  let analysis_niter = 1
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_generic (Class_s) (S)
  module Float = Scvad_float.Cg.Make_generic (Class_s)
end

(* NPB class W (the scaling study). *)
module Class_w : CONFIG = struct
  let na = 7000
  let nonzer = 8
  let shift = 12.
  let rcond = 0.1
  let niter = 15
  let cgitmax = 25
end

module App_w : Scvad_core.App.S = struct
  let name = "cg-w"
  let description = "Conjugate Gradient (class W, NA = 7000)"
  let default_niter = Class_w.niter
  let analysis_niter = 1
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_generic (Class_w) (S)
  module Float = Scvad_float.Cg.Make_generic (Class_w)
end

(* Reduced-size configuration for expensive ablations (forward probe). *)
module Tiny_config : CONFIG = struct
  let na = 60
  let nonzer = 3
  let shift = 10.
  let rcond = 0.1
  let niter = 4
  let cgitmax = 10
end

module Tiny_app : Scvad_core.App.S = struct
  let name = "cg-tiny"
  let description = "Conjugate Gradient, reduced size for ablations"
  let default_niter = Tiny_config.niter
  let analysis_niter = 1

  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = Make_generic (Tiny_config) (S)
  module Float = Scvad_float.Cg.Make_generic (Tiny_config)
end
