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
    no tape nodes, so the pre-checkpoint phase of a kernel is free. *)

type t = { id : int; v : float }

(** A constant (derivative-transparent) value. *)
val const : float -> t

(** Primal value. *)
val value : t -> float

(** Tape node id; [-1] for constants. *)
val node_id : t -> int

val is_const : t -> bool

(** The push rules over any {!Tape_intf.RECORD}: the one definition of
    which node each [Scalar.S] operation records.  {!var}, {!lift} and
    {!Scalar_of} below are [Record (Tape)]; [Record (Tape.Counting)]
    runs a kernel under the same rules and only counts the nodes. *)
module Record (T : Tape_intf.RECORD) : sig
  (** [var tape v] introduces an independent variable on [tape]. *)
  val var : T.t -> float -> t

  val lift : T.t -> t -> t

  (** Scalar structure recording onto the given tape. *)
  module Scalar_of (_ : sig
    val tape : T.t
  end) : Scalar.S with type t = t
end

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
    {!Tape.backward}.  [?fan] lets independent tape slabs be swept in
    parallel; the result is bitwise identical at any parallelism. *)
val backward : ?fan:Tape_intf.fan -> Tape.t -> t -> gradients

(** [grad g x] is [d output / d x]; 0 if [x] is a constant or was recorded
    after the output. *)
val grad : gradients -> t -> float
