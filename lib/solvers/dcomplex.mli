(** Complex numbers over a generic scalar — NPB FT's [dcomplex],
    generalized so FT's signal and checksums can run under AD. *)

module Make (S : Scvad_ad.Scalar.S) : sig
  type t

  val make : S.t -> S.t -> t
  val of_floats : float -> float -> t
  val zero : t
  val re : t -> S.t
  val im : t -> S.t
  val add : t -> t -> t

  (** Scale by a real scalar. *)
  val scale : S.t -> t -> t
end
