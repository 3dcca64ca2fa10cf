(** Compact reverse-mode tape.

    The tape is an append-only record of the data-flow graph of a program
    execution: one node per arithmetic operation, each with at most two
    parent nodes and the local partial derivatives towards them.  Storage
    is Bigarray-backed (24 bytes per node) and chunked into equally sized
    slabs, so large kernels — tens of millions of nodes — stay off the
    OCaml heap and growth never copies recorded nodes.

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
    never call [push1]/[push2] directly. *)

(** Recompute-vs-store schedule of a budgeted tape.

    - [Binomial] (default): keep boundary snapshots at a stride that
      doubles whenever the slots fill, plus re-snapshotting at
      binomial-optimal split points during each backward replay pass.
    - [Planned bs]: snapshot exactly at the precomputed boundary indices
      [bs] (strictly increasing, starting at 0) — the output of a static
      cost model that knew the per-segment node counts before recording
      began.  Recording-time snapshots are never evicted; replay passes
      still re-capture binomially into any free slots.  {!create} raises
      [Invalid_argument] on an empty, unsorted, or non-zero-based plan.

    An unbudgeted tape never discards, so it needs no schedule. *)
module Segmented : sig
  type schedule = Binomial | Planned of int list

  val schedule_to_string : schedule -> string
end

type t

(** [create ?capacity_hint ?budget_nodes ?snapshot_slots ?schedule ()]
    makes an empty tape.

    [capacity_hint] sets the nodes per slab, clamped up to 16; a
    negative hint raises [Invalid_argument].  A hint covering the whole
    recording (e.g. [App.S.tape_nodes_hint]) means exactly one slab is
    ever allocated; an underestimate only adds further slabs of the same
    size.  Without a hint, slabs hold 65536 nodes, or under a budget
    [max 16 (min 65536 (budget_nodes / 8))].

    [budget_nodes] caps materialized node slots (rounded down to whole
    slabs, at least one slab); it must be >= 1.  The adjoint accumulator
    of a backward sweep is dense regardless — adjoint edges cross
    segment boundaries — and costs 8 bytes per node up to the output.
    [snapshot_slots] (default 32, >= 1) bounds the boundary snapshots a
    budgeted tape keeps; [schedule] defaults to [Binomial]. *)
val create :
  ?capacity_hint:int ->
  ?budget_nodes:int ->
  ?snapshot_slots:int ->
  ?schedule:Segmented.schedule ->
  unit ->
  t

include Tape_intf.RECORD with type t := t

(** Nodes per storage slab (the granularity of growth). *)
val slab_nodes : t -> int

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
    descending scan (same nodes inspected in the same order, so the same
    floating-point additions in the same order).  With [?fan],
    independent slabs are swept through it; results remain bitwise
    identical to the sequential sweep at any parallelism.

    The accumulator is cached on the tape across sweeps, so a later
    [backward] invalidates previously returned [adjoints]: read
    gradients before sweeping again.  A budgeted tape discards its
    slabs while sweeping and can be swept again only by replay. *)
val backward : ?fan:Tape_intf.fan -> t -> output:int -> adjoints

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
    [length] after a run through [Reverse.Record (Counting)] is that
    run's tape size.  It has no sweep and no {!Tape_intf.max_nodes}
    limit: it can size recordings no real tape could hold.  [capacity]
    is always 0. *)
module Counting : sig
  type t

  val create : unit -> t

  include Tape_intf.RECORD with type t := t
end
