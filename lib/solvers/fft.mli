(** In-place iterative radix-2 complex FFT over a generic scalar.

    Storage is interleaved: complex entry [k] of an array [a] is the
    pair [a.(2k)] (real part), [a.(2k+1)] (imaginary part), so an array
    of [m] complex entries has length [2m].  Over plain floats that is
    a flat [float array] and a transform allocates nothing.

    Twiddle factors are plain-float constants, so differentiating an
    FFT costs one tape node per butterfly operation (four multiplies,
    six additions, in a fixed order) and nothing for the
    trigonometry. *)

module Make (S : Scvad_ad.Scalar.S) : sig
  (** The twiddle factors of one transform size and direction. *)
  type plan

  (** [plan ~sign ~n] computes the [n - 1] twiddle factors of an
      [n]-entry transform once.  [sign = -1.] is the forward kernel
      exp(-2πik/n), [sign = +1.] the unnormalized inverse.  Raises
      unless [n] is a power of two. *)
  val plan : sign:float -> n:int -> plan

  (** In-place transform of the plan's [n] complex entries starting at
      entry [off] (array slots [2off .. 2(off+n)-1]). *)
  val run : plan -> S.t array -> off:int -> unit

  (** [run (plan ~sign ~n)]: one-off transforms. *)
  val transform : sign:float -> S.t array -> off:int -> n:int -> unit

  val forward : S.t array -> off:int -> n:int -> unit

  (** Normalized inverse (divides by [n]). *)
  val inverse : S.t array -> off:int -> n:int -> unit
end
