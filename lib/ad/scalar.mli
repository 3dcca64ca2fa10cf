(** Generic scalar signature.

    Every numerical kernel in this repository is a functor over [Scalar.S],
    so the same kernel source runs in three modes:

    - plain floats ({!Float_scalar}) for production execution, through
      copies generated at build time with it bound statically
      ([scvad_float]); the functor instance is their test oracle,
    - reverse-mode AD values ({!Reverse}) for one-pass criticality analysis,
    - forward-mode duals ({!Dual}) for per-element probing.

    Scalar arithmetic uses the [+.]/[-.]/[*.]/[/.] spelling so that integer
    index arithmetic inside kernels keeps the ordinary [+] operators even
    when the signature is opened. *)

module type S = sig
  type t

  val zero : t
  val one : t

  val of_float : float -> t

  val of_int : int -> t

  (** Primal (value) part. For AD scalars this drops the derivative
      information; kernels use it for branching and I/O only. *)
  val to_float : t -> float

  val ( +. ) : t -> t -> t
  val ( -. ) : t -> t -> t
  val ( *. ) : t -> t -> t
  val ( /. ) : t -> t -> t

  (** Unary negation. *)
  val ( ~-. ) : t -> t

  val sqrt : t -> t
  val exp : t -> t
  val log : t -> t
  val sin : t -> t
  val cos : t -> t
  val abs : t -> t

  (** [max]/[min] select by primal value; the derivative follows the
      selected argument (the usual AD convention, also Enzyme's). *)
  val max : t -> t -> t

  val min : t -> t -> t

  (** Comparisons are on primal values. An AD-mode kernel therefore takes
      the same control-flow path as the float-mode kernel. *)
  val compare : t -> t -> int

  val equal : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
