(** Shared structure of the ADI-family benchmarks (BT, SP, LU).

    Class-S 12x12x12 grids in [12][13][13][5] arrays padded to 13 in j
    and i — only k,j,i in 0..11 ever participate, the paper's Fig. 3
    pattern. *)

(** Grid parameterization: class S (the paper) and the NPB class-W
    sizes of the three benchmarks. *)
module type GRID = sig
  val grid : int
end

module Class_s_grid : GRID
module Bt_w_grid : GRID
module Sp_w_grid : GRID
module Lu_w_grid : GRID

(** Dimension algebra of one grid size: arrays padded by one in j and
    i. *)
module Dims (G : GRID) : sig
  val grid : int
  val jdim : int
  val idim : int
  val ncomp : int
  val total : int
  val idx : int -> int -> int -> int -> int
  val idx3 : int -> int -> int -> int
  val total3 : int
  val shape4 : Scvad_nd.Shape.t Lazy.t
  val shape3 : Scvad_nd.Shape.t Lazy.t
end

val grid : int
val jdim : int
val idim : int
val ncomp : int

(** grid * jdim * idim * ncomp = 10140. *)
val total : int

(** Flat offset of u[k][j][i][m]. *)
val idx : int -> int -> int -> int -> int

(** Flat offset into a [12][13][13] coefficient field. *)
val idx3 : int -> int -> int -> int

(** grid * jdim * idim = 2028. *)
val total3 : int

val shape4 : Scvad_nd.Shape.t Lazy.t
val shape3 : Scvad_nd.Shape.t Lazy.t

module Make_sized (_ : GRID) (S : Scvad_ad.Scalar.S) : sig
  (** Fill the active 0..grid-1 ranges with a perturbed reference field
      (nowhere exactly at the error-norm minimum, like NPB's transfinite
      initialization); padding stays zero. *)
  val initialize : S.t array -> unit

  (** Fig. 2's reduction: RMS deviation from the reference over
      k,j,i in 0..grid-1; [mmax] limits the components read. *)
  val error_norm : ?mmax:int -> S.t array -> S.t array

  (** RMS of a residual field over the active ranges. *)
  val rhs_norm : ?mmax:int -> S.t array -> S.t array

  val sum : S.t array -> S.t

  (** Convection-diffusion right-hand side: interior stencil whose read
      set is the full 12x12x12 active cube. *)
  val compute_rhs : dt:float -> S.t array -> S.t array -> unit
end

(** [Make_sized (Class_s_grid)]. *)
module Make (S : Scvad_ad.Scalar.S) : module type of Make_sized (Class_s_grid) (S)
