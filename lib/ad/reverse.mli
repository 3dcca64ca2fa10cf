(** Reverse-mode automatic differentiation (the Enzyme substitute).

    Usage pattern, mirroring the paper's analysis:

    {[
      let tape = Tape.create () in
      let module S = Reverse.Scalar_of (struct let tape = tape end) in
      (* run the program; lift checkpointed elements with [var] *)
      let x = Reverse.var tape 3.0 in
      let y = S.(x *. x) in
      let g = Reverse.backward tape y in
      Reverse.grad g x (* = 6.0 *)
    ]}

    Constants fold: arithmetic on values never lifted with {!var} records
    no tape nodes, so the pre-checkpoint phase of a kernel is free.

    {b Layout.}  A value is an all-float record: the tape node id and
    the primal share one flat float block of 3 heap words.  The id is
    exact: a tape holds at most {!Tape_intf.max_nodes} = 2{^31} nodes,
    and a float represents every integer below 2{^53}.

    {b One set of push rules.}  {!var}, {!lift} and {!Scalar_of} are
    written once, over the engine {!Tape}, whose pushes inline into
    them.  The counting tape's recorder ([Scvad_float.Counting_reverse],
    over {!Tape.Counting}) and the seed oracle's ([Seed_reverse], over
    [Seed_tape]) are derived from this module's source text at build
    time by [float/record.sed], so all three record exactly the same
    nodes. *)

type t = { id : float; v : float }

(** A constant (derivative-transparent) value. *)
val const : float -> t

(** Primal value. *)
val value : t -> float

(** Tape node id; [-1] for constants. *)
val node_id : t -> int

val is_const : t -> bool

(** [var tape v] introduces an independent variable — one element under
    scrutiny. *)
val var : Tape.t -> float -> t

(** [lift tape x] is [x] if already a variable, else a fresh variable with
    the same value.  Used to seed checkpoint variables in place. *)
val lift : Tape.t -> t -> t

(** Scalar structure recording onto the given tape. *)
module Scalar_of (_ : sig
  val tape : Tape.t
end) : Scalar.S with type t = t

type gradients

(** One reverse sweep from [output]; cost is proportional to the
    touched (active) subgraph, not the tape length — see
    {!Tape.backward}. *)
val backward : Tape.t -> t -> gradients

(** [grad g x] is [d output / d x]; 0 if [x] is a constant or was recorded
    after the output. *)
val grad : gradients -> t -> float
