(** Compact reverse-mode tape.

    The tape is an append-only record of the data-flow graph of a program
    execution: one node per arithmetic operation, each with at most two
    parent nodes and the local partial derivatives towards them.  Storage
    is Bigarray-backed (24 bytes per node) and chunked into equally sized
    slabs, so large kernels — tens of millions of nodes — stay off the
    OCaml heap and growth never copies recorded nodes.

    {b How long storage lives.}  A tape owns its slabs from {!create}
    until {!release} or, if it is never released, until the GC
    collects it.  {!clear} keeps them for the next recording on the same
    tape.  {!release} hands every slab of the default size (65,536
    nodes) to a free list local to the running domain; {!create} and
    every later growth in that domain take from that list before they
    allocate, so the next analysis writes into pages that are already
    mapped.  The list keeps what it is given for the life of the domain.
    A recycled slab keeps whatever its last tape wrote, which is sound
    because a push writes every field of its node before any sweep or
    replay reads it.  Slabs of other sizes (small budgets, the
    [capacity_hint] test seam) are never pooled.

    One engine serves every analysis.  Without a memory budget it stores
    every node.  Under a budget it materializes at most [budget_nodes]
    worth of trailing slabs; older slabs are discarded once a primal
    snapshot can rebuild them.  The program registers two hooks with
    {!set_program} and marks each step boundary with {!start_segment};
    the backward sweep then proceeds over slab windows top-down,
    replaying the program from the nearest snapshot to rematerialize
    each discarded window (Siskind–Pearlmutter binomial checkpointing
    applied to the scrutiny tape).  Replay must be deterministic —
    re-pushed nodes must land on their recorded ids; watermark checks at
    every segment boundary raise [Failure] on divergence rather than
    produce wrong adjoints.

    Invariants:
    - {b Node ids are dense}: consecutive ints from 0 in push order, and
      a parent id always names a node pushed {e before} its child, which
      makes a single reverse sweep linear.  Ids are [int32]: growth
      checks {!Tape_intf.max_nodes}, so an overflowing push raises
      {!Tape_intf.Too_many_nodes} instead of wrapping an id.
    - {b Constants are id -1}: pushes accept parent [-1] for "no
      parent"; {!adjoint} is 0 and {!reachable} is [false] for it.
    - {b One bounds check}: {!backward} and {!reach} validate [output]
      once; the sweeps themselves use unsafe accesses.

    {!Reverse} provides the operator-overloading front end; most users
    never call [push1]/[push2] directly.  [push1], [push2] and
    [fresh_var] are marked [[@inline]] and inline into {!Reverse}'s push
    rules in the release profile, so a primal or partial reaches its
    slab unboxed. *)

(** The recompute-vs-store schedule of a budgeted tape.  There is one:
    keep boundary snapshots at a stride that doubles whenever the slots
    fill, and re-snapshot at binomial-optimal split points during each
    backward replay pass.  The type is kept only for the benchmark,
    which passes [Binomial] to [Analyzer.Config.with_schedule]. *)
module Segmented : sig
  type schedule = Binomial
end

type t

(** [create ?capacity_hint ?budget_nodes ?snapshot_slots ()] makes an
    empty tape.

    Slabs hold 65,536 nodes, or under a budget
    [max 16 (min 65536 (budget_nodes / 8))].  [capacity_hint] is a test
    seam: it sets the nodes per slab, clamped up to 16, so that small
    recordings cross many slab edges; a negative hint raises
    [Invalid_argument].

    [budget_nodes] caps materialized node slots (rounded down to whole
    slabs, at least one slab); it must be >= 1.  The cap is never
    exceeded: a push that finds it full with nothing discardable (the
    prelude, or a tape without {!set_program}) raises
    {!Tape_intf.Budget_too_small}.  The adjoint accumulator of a
    backward sweep is not windowed — adjoint edges cross segment
    boundaries — and reserves 8 bytes per node up to the output, but a
    sweep writes only the entries of the nodes it reaches.
    [snapshot_slots] (default 32, >= 1) bounds the boundary snapshots a
    budgeted tape keeps. *)
val create :
  ?capacity_hint:int -> ?budget_nodes:int -> ?snapshot_slots:int -> unit -> t

include Tape_intf.RECORD with type t := t

(** Nodes per storage slab (the granularity of growth). *)
val slab_nodes : t -> int

(** [release t] gives every default-size slab of [t] to the running
    domain's free list (see the top of this file) and drops the sweep
    accumulator.  Previously returned {!adjoints} and {!reach} results
    stay valid; they own their storage.  After it, [length], [capacity]
    (0), {!stats} and {!last_sweep} still answer, and every push,
    {!set_program}, {!start_segment}, {!backward}, {!reach}, [clear] and
    a second [release] raise [Invalid_argument].  The slabs join the
    pool of the domain that calls it. *)
val release : t -> unit

(** Register the replay hooks; must be called before any push.
    [capture ()] snapshots restart state at the current boundary and
    returns the thunk that restores it; [replay_step s] re-executes
    segment [s] (the program between boundaries [s] and [s+1],
    re-pushing the same nodes).  Nodes pushed before the first
    {!start_segment} form the prelude (input lifting): they are never
    replayed, so they must be parentless; a non-constant prelude push
    raises [Invalid_argument]. *)
val set_program :
  t -> capture:(unit -> unit -> unit) -> replay_step:(int -> unit) -> unit

(** Mark a program-step boundary.  The first call ends the prelude;
    snapshots are taken here per the schedule. *)
val start_segment : t -> unit

(** Result of a backward sweep. *)
type adjoints

(** [backward t ~output] runs one reverse sweep seeded with
    [d output / d output = 1] and returns the adjoint of every node at
    or below [output].  Raises [Invalid_argument] when [output] is not a
    recorded node.

    The sweep is sparsity-aware: only nodes whose adjoint became nonzero
    are visited, and the result is bitwise identical to a dense
    descending scan over a zeroed accumulator (same nodes inspected in
    the same order, so the same floating-point additions in the same
    order).  The accumulator is never zero-filled: a bitmap marks the
    nodes that received a contribution, and {!adjoint} reads 0 for the
    rest, so the sweep writes only the entries of the nodes it reaches.

    The accumulator is cached on the tape across sweeps, so a later
    [backward] invalidates previously returned [adjoints]: read
    gradients before sweeping again.  A budgeted tape discards its
    slabs while sweeping and can be swept again only by replay. *)
val backward : t -> output:int -> adjoints

(** [adjoint g id] is [d output / d node]; 0 for constants ([id < 0])
    and for nodes recorded after the output. *)
val adjoint : adjoints -> int -> float

(** Nodes the output depends on. *)
type reach

(** [reach t ~output] is reverse reachability from [output] over the
    recorded edges, one frontier pass on bits alone: a node is reached
    whatever the values of its partials, so a zero partial still counts
    as a dependence.  Raises [Invalid_argument] (naming the node and the
    tape length) when [output] is not a recorded node, and when the
    sweep reaches a slab the tape discarded.  The result is a snapshot:
    it survives {!clear} and later recordings. *)
val reach : t -> output:int -> reach

(** Is the node in the output's dependence cone?  [false] for
    constants and for nodes after the output. *)
val reachable : reach -> int -> bool

(** Statistics of the most recent {!backward} or {!reach}; [None] before
    the first sweep. *)
val last_sweep : t -> Tape_intf.sweep_stats option

(** Recording and replay accounting. *)
type stats = {
  s_slab_nodes : int;
  s_total_nodes : int;  (** recording length *)
  s_segments : int;  (** [start_segment] boundaries *)
  s_snapshots : int;  (** snapshots taken, including replay-time *)
  s_replays : int;  (** replay passes during [backward] *)
  s_replayed_nodes : int;  (** nodes re-pushed by those passes *)
  s_peak_live_nodes : int;  (** peak materialized node slots *)
}

val stats : t -> stats

(** Counting tape: the recording half of a tape ({!Tape_intf.RECORD})
    with no storage.  Each push returns the id the tape would assign, so
    [length] after a run through [Scvad_float.Counting_reverse] (the
    push rules of {!Reverse}, derived onto this module at build time)
    is that run's tape size.  It has no sweep and no {!Tape_intf.max_nodes}
    limit: it can size recordings no real tape could hold.  [capacity]
    is always 0. *)
module Counting : sig
  type t

  val create : unit -> t

  include Tape_intf.RECORD with type t := t
end
