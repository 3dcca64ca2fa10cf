(** CG — Conjugate Gradient (NPB kernel).

    Inverse power iteration on a sparse random matrix generated by an
    exact port of NPB's makea/sprnvc (the class-S golden output equals
    NPB's official verification value zeta = 8.5971775078648).
    Checkpoint variables (Table I): double x[NA+2], int it; x is
    1-based, so x[0] and x[NA+1] are the paper's 2 uncritical elements
    (Fig. 6). *)

module type CONFIG = sig
  val na : int
  val nonzer : int
  val shift : float
  val rcond : float
  val niter : int
  val cgitmax : int
end

(** NPB class S: NA = 1400, NONZER = 7, SHIFT = 10, 15 iterations. *)
module Class_s : CONFIG

(** The sparse matrix in CSR form, 1-based rows and columns: row [j]
    spans [rowstr.(j) .. rowstr.(j+1) - 1] of [colidx] and [values],
    sorted by column. *)
type matrix = {
  n : int;
  rowstr : int array;
  colidx : int array;
  values : float array;
}

(** NPB's makea: the matrix drawn from the randlc stream [rng] (CG's
    [create] burns one deviate first). *)
val makea : (module CONFIG) -> Scvad_nprand.Nprand.t -> matrix

module Make_generic (C : CONFIG) (S : Scvad_ad.Scalar.S) :
  Scvad_core.App.INSTANCE with type scalar = S.t

(** Class-S application (the paper's configuration). *)
module App : Scvad_core.App.S

(** NPB class W: NA = 7000, NONZER = 8, SHIFT = 12 (the scaling
    study; official verification zeta = 10.362595087124). *)
module Class_w : CONFIG

module App_w : Scvad_core.App.S

(** Reduced size for expensive ablations (forward probing). *)
module Tiny_config : CONFIG

module Tiny_app : Scvad_core.App.S
