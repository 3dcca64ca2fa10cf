(** Tape backend signatures.

    Two families of reverse tapes share one storage contract:

    - {!TAPE}: full reverse-mode tapes carrying local partial
      derivatives (24 bytes per node).  {!Tape} (dense, every node
      retained) and {!Tape.Segmented} (bounded live storage, discarded
      segments replayed on demand) both satisfy it, so {!Reverse} and
      the analyzer can swap backends without touching the kernels.
      Its recording half, {!RECORD}, is also met by {!Tape.Counting},
      which stores nothing but the next node id.
    - {!DEP}: edges-only dependence tapes (8 bytes per node, no
      partials) — the substrate of {!Activity} and {!Itaint}.

    Future backends (e.g. a disk-spilling tape) are drop-in: satisfy
    the signature and instantiate {!Reverse.Make}.

    {2 Invariants every implementation must keep}

    - {b Node ids are dense}: ids are consecutive ints starting at 0 in
      push order, and a parent id always names a node pushed {e before}
      its child.  This is what makes a single reverse sweep linear.
      Ids are stored as [int32]: a backend checks {!max_nodes} with
      {!check_nodes} when it grows storage, so an overflowing push
      raises {!Too_many_nodes} instead of wrapping an id.
    - {b Unsafe access after one up-front bounds check}: [backward]
      validates [output] once ([0 <= output < length t], descriptive
      [Invalid_argument] otherwise); the sweep itself may then use
      [unsafe_get]/[unsafe_set], because parent ids are bounded by the
      push-order invariant and node offsets stay inside their slab by
      the uniform-slab-size layout.  New backends inherit this
      obligation: one check at the API boundary, none on the hot path.
    - {b Clear reuses storage}: [clear] drops all recorded nodes but
      retains the allocated storage, so a cleared tape re-records
      without reallocating.  [length] is 0 after [clear]; [capacity]
      is unchanged (or larger, never smaller).
    - {b Constants are id -1}: pushes accept parent id [-1] to mean "no
      parent / constant"; [adjoint] (resp. [reachable]) returns 0
      (resp. [false]) for negative ids. *)

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
    Backends call it when they grow storage, never per push, and clamp
    their storage end at [max_nodes] so the push that would reach
    [max_nodes + 1] nodes always lands in a growth. *)
let check_nodes n = if n > max_nodes then raise (Too_many_nodes n)

(** Parallel fan-out capability, injected by the caller.

    [fan_run f xs] maps [f] over [xs], possibly concurrently, and
    returns the results in input order.  A record with a polymorphic
    field rather than a functor argument so that tape backends need no
    compile-time dependency on any particular pool implementation. *)
type fan = { fan_run : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

(** Shared storage and lifecycle contract. *)
module type STORE = sig
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
end

(** Recording half of a reverse-mode tape: everything {!Reverse.Record}
    ([var], [lift], [Scalar_of]) needs, and no sweep.  {!Tape.Counting}
    satisfies only this half, so a counter can predict a recording's
    node ids but can never be swept. *)
module type RECORD = sig
  include STORE

  (** [push1 t p dp] appends a unary node with parent [p] and local
      partial [dp]; returns the node id. *)
  val push1 : t -> int -> float -> int

  (** [push2 t l dl r dr] appends a binary node. *)
  val push2 : t -> int -> float -> int -> float -> int
end

(** Full reverse-mode tape: nodes carry local partial derivatives and a
    backward sweep yields adjoints. *)
module type TAPE = sig
  include RECORD

  (** Result of a backward sweep. *)
  type adjoints

  (** [backward t ~output] runs one reverse sweep seeded with
      [d output / d output = 1] and returns the adjoint of every node
      at or below [output].  Raises a descriptive [Invalid_argument]
      when [output] is not a recorded node — the one bounds check that
      licenses the unsafe sweep.

      The sweep is sparsity-aware: only nodes whose adjoint became
      nonzero are visited, and the result is bitwise identical to a
      dense descending scan (same nodes inspected in the same order,
      so the same floating-point additions in the same order).  When
      [?fan] is given, a backend may fan independent portions of the
      sweep out through it; results remain bitwise identical to the
      sequential sweep at any parallelism.

      The accumulator is cached on the tape across sweeps (cleared
      frontier-wise, not re-zeroed wholesale), so a later [backward]
      invalidates previously returned [adjoints]: read gradients before
      sweeping again. *)
  val backward : ?fan:fan -> t -> output:int -> adjoints

  (** [adjoint g id] is [d output / d node]; 0 for constants
      ([id < 0]) and for nodes recorded after the output. *)
  val adjoint : adjoints -> int -> float

  (** Statistics of the most recent [backward] on this tape; [None]
      before the first sweep. *)
  val last_sweep : t -> sweep_stats option
end

(** Edges-only dependence tape: no partials; a backward sweep computes
    reverse reachability (a zero-valued partial still counts as a
    dependence). *)
module type DEP = sig
  include STORE

  (** Unary dependence node. *)
  val push1 : t -> int -> int

  (** Binary dependence node. *)
  val push2 : t -> int -> int -> int

  type reach

  (** Reverse reachability from [output], one linear pass.  Raises a
      descriptive [Invalid_argument] when [output] is not on the
      tape. *)
  val backward : t -> output:int -> reach

  (** Is the node in the output's dependence cone? *)
  val reachable : reach -> int -> bool

  (** Statistics of the most recent [backward]; [None] before the
      first sweep.  [visited_nodes] counts marked (propagating)
      nodes. *)
  val last_sweep : t -> sweep_stats option
end
