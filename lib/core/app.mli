(** Application interface.

    Every benchmark is packaged as an {!S}: a functor over the scalar
    type, its plain-float production instance, plus metadata.  The same
    kernel source therefore runs in float mode (execution,
    checkpointing) and in AD mode (criticality analysis), which is the
    linchpin of the reproduction: the analysis sees exactly the data
    flow the real run performs. *)

(** One instantiation of a benchmark at a concrete scalar type. *)
module type INSTANCE = sig
  type scalar
  type state

  val create : unit -> state

  (** [run state ~from ~until] executes main-loop iterations
      [from .. until-1].  Resumable: after a restore, call with
      [from = iterations_done state]. *)
  val run : state -> from:int -> until:int -> unit

  (** Completed main-loop iterations. *)
  val iterations_done : state -> int

  (** The scalar output the paper differentiates: the benchmark's final
      verification reduction.  Meaningful once the run finished. *)
  val output : state -> scalar

  (** Floating-point variables necessary for checkpointing (Table I). *)
  val float_vars : state -> scalar Variable.t list

  (** Integer variables necessary for checkpointing. *)
  val int_vars : state -> Variable.int_t list
end

(** A benchmark: metadata plus the scalar-generic kernel. *)
module type S = sig
  val name : string
  val description : string

  (** Full production iteration count (NPB class S). *)
  val default_niter : int

  (** Iterations sufficient for the criticality pattern to stabilize
      (access patterns are iteration-invariant in all eight benchmarks,
      so this is small — what keeps reverse tapes affordable). *)
  val analysis_niter : int

  (** The scalar-generic kernel.  [Make (Float_scalar)] is the test
      oracle for {!Float}; the AD modes instantiate it at their scalars. *)
  module Make (S : Scvad_ad.Scalar.S) : INSTANCE with type scalar = S.t

  (** The production instance: golden runs, checkpointed runs, restarts
      and falsifier trials.  For the NPB kernels it is generated at build
      time from the same source with the scalar bound to plain floats
      ([scvad_float]): without flambda [Make (Float_scalar)] keeps an
      indirect call and a boxed float per operation.  It must agree with
      [Make (Float_scalar)] bit for bit. *)
  module Float : INSTANCE with type scalar = float

  (** Mechanized integer-dependence analysis (IS): returns criticality
      masks keyed by integer-variable name for the [By_taint] variables.
      [None] for benchmarks whose integer variables carry declared
      criticality. *)
  val int_taint_masks : (unit -> (string * bool array) list) option
end
