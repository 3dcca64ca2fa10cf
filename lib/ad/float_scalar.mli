(** Plain-float instantiation of {!Scalar.S}.

    All operations alias the [Stdlib] float primitives.  Code that names
    [Float_scalar] directly compiles to ordinary float code.  A kernel
    functor applied to it does not: without flambda a functor is compiled
    once for every scalar, so each operation stays an indirect call on
    boxed floats.  Production runs therefore use the instances generated
    at build time with this module bound in place of the parameter
    ([scvad_float], exposed as [App.S.Float]); [Make (Float_scalar)] is
    their test oracle. *)

include Scalar.S with type t = float
