(* Complex numbers over a generic scalar: NPB FT's [dcomplex] with [real]
   and [imag] double attributes, generalized so FT's signal and
   checksums can run under AD.  The two components are independent
   scalars, which is exactly how the paper counts FT's elements (each
   dcomplex cell = one element of the checkpoint variable [y], its
   criticality judged through both components).  The FFT does not use
   this type: it works on interleaved scalar arrays ({!Fft}). *)

module Make (S : Scvad_ad.Scalar.S) = struct
  type t = { re : S.t; im : S.t }

  let make re im = { re; im }
  let of_floats re im = { re = S.of_float re; im = S.of_float im }
  let zero = { re = S.zero; im = S.zero }
  let re t = t.re
  let im t = t.im
  let add a b = { re = S.(a.re +. b.re); im = S.(a.im +. b.im) }

  (* Scale by a real scalar. *)
  let scale k t = { re = S.(k *. t.re); im = S.(k *. t.im) }
end
