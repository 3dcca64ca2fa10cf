(** Shared tape vocabulary.

    {!Tape} is the one storage and sweep engine; this module holds what
    its callers and the recording-only {!Tape.Counting} share: the sweep
    statistics, the int32 node-id limit, the fan-out capability of a
    parallel sweep, and {!RECORD}, the recording half of a tape that
    {!Reverse.Record} writes its push rules against.

    A {!RECORD} implementation keeps the tape's id discipline: ids are
    consecutive ints starting at 0 in push order, a parent id always
    names a node pushed {e before} its child, parent id [-1] means "no
    parent / constant", and [clear] drops every node ([length] is 0)
    while keeping the storage ([capacity] never shrinks). *)

(** Statistics of the most recent backward sweep.

    [visited_nodes] counts the nodes whose adjoint (resp. reach mark)
    was nonzero when the sweep inspected them — the nodes that actually
    propagated.  [swept_nodes] is the size of the sweep range
    ([output + 1]); the gap between the two is the work a
    sparsity-aware sweep avoids.  Both counts are determined by the
    recorded values alone, so they are identical across sequential and
    parallel sweeps of the same tape. *)
type sweep_stats = { visited_nodes : int; swept_nodes : int }

(** Node ids are stored as [int32], so a tape holds at most
    [max_nodes] = 2{^31} nodes (ids [0 .. 2{^31} - 1]). *)
let max_nodes = 1 lsl 31

(** Raised when a tape would grow past {!max_nodes}; carries the node
    count the failed push would have reached. *)
exception Too_many_nodes of int

(** [check_nodes n] raises [Too_many_nodes n] when [n > max_nodes].
    The tape calls it when it grows storage, never per push, and clamps
    its storage end at [max_nodes] so the push that would reach
    [max_nodes + 1] nodes always lands in a growth. *)
let check_nodes n = if n > max_nodes then raise (Too_many_nodes n)

(** Parallel fan-out capability, injected by the caller.

    [fan_run f xs] maps [f] over [xs], possibly concurrently, and
    returns the results in input order.  A record with a polymorphic
    field rather than a functor argument so that the tape needs no
    compile-time dependency on any particular pool implementation. *)
type fan = { fan_run : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

(** Recording half of a reverse-mode tape: everything {!Reverse.Record}
    ([var], [lift], [Scalar_of]) needs, and no sweep.  {!Tape} and
    {!Tape.Counting} satisfy it; the counter predicts a recording's node
    ids but can never be swept. *)
module type RECORD = sig
  type t

  (** Number of nodes currently recorded. *)
  val length : t -> int

  (** Currently reserved node slots (storage, not recording length). *)
  val capacity : t -> int

  (** Drop all nodes; allocated storage is retained for reuse. *)
  val clear : t -> unit

  (** New independent (input) variable: a parentless node; returns its
      id. *)
  val fresh_var : t -> int

  (** [push1 t p dp] appends a unary node with parent [p] and local
      partial [dp]; returns the node id. *)
  val push1 : t -> int -> float -> int

  (** [push2 t l dl r dr] appends a binary node. *)
  val push2 : t -> int -> float -> int -> float -> int
end
