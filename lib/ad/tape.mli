(** Compact reverse-mode tape.

    The tape is an append-only record of the data-flow graph of a program
    execution: one node per arithmetic operation, each with at most two
    parent nodes and the local partial derivatives towards them.  Storage
    is Bigarray-backed (24 bytes per node) and chunked into equally sized
    slabs, so large kernels — tens of millions of nodes — stay off the
    OCaml heap and growth never copies recorded nodes.

    Both the dense tape here and {!Segmented} satisfy
    {!Tape_intf.TAPE}, so {!Reverse} and the analyzer treat them
    interchangeably.

    {!Reverse} provides the operator-overloading front end; most users
    never call [push1]/[push2] directly. *)

type t

(** [create ?capacity_hint ()] makes an empty tape whose slabs each hold
    [max capacity_hint 16] nodes — hints below 16 are explicitly clamped
    up to 16, the smallest slab worth allocating.  Negative hints raise
    [Invalid_argument].  A hint covering the whole recording (e.g.
    [App.S.tape_nodes_hint]) means exactly one slab is ever allocated;
    an underestimate only adds further slabs of the same size — recorded
    nodes are never copied. *)
val create : ?capacity_hint:int -> unit -> t

include Tape_intf.TAPE with type t := t

(** Nodes per storage slab (the granularity of growth). *)
val slab_nodes : t -> int

(** Bytes of off-heap storage currently reserved (diagnostic). *)
val reserved_bytes : t -> int

(** Segmented tape: the dense node layout under a memory budget.

    Recording materializes at most [budget_nodes] worth of trailing
    slabs; older slabs are discarded once a primal snapshot can rebuild
    them.  The program registers two hooks with {!Segmented.set_program}
    and marks each step boundary with {!Segmented.start_segment}; the
    backward sweep then proceeds over slab windows top-down, replaying
    the program from the nearest snapshot to rematerialize each
    discarded window (Siskind–Pearlmutter binomial checkpointing
    applied to the scrutiny tape).

    Replay must be deterministic — re-pushed nodes must land on their
    recorded ids.  Watermark checks at every segment boundary raise
    [Failure] on divergence rather than produce wrong adjoints.

    Nodes pushed before the first [start_segment] form the prelude
    (input lifting): they are never replayed, so they must be
    parentless; a non-constant prelude push raises [Invalid_argument].

    The budget bounds tape node storage (24 bytes per slot, rounded to
    whole slabs).  The adjoint accumulator of a backward sweep is dense
    regardless — adjoint edges cross segment boundaries — and costs 8
    bytes per node up to the output. *)
module Segmented : sig
  (** Recompute-vs-store schedule.

      - [All_store]: never discard — degenerates to the dense tape
        (zero replays, budget ignored).
      - [Binomial] (default): keep boundary snapshots at a stride that
        doubles whenever the slots fill, plus re-snapshotting at
        binomial-optimal split points during each backward replay
        pass.
      - [Planned bs]: snapshot exactly at the precomputed boundary
        indices [bs] (strictly increasing, starting at 0) — the output
        of a static cost model that knew the per-segment node counts
        before recording began.  Recording-time snapshots are never
        evicted; replay passes still re-capture binomially into any
        free slots.  [create] raises [Invalid_argument] on an empty,
        unsorted, or non-zero-based plan. *)
  type schedule =
    | All_store
    | Binomial
    | Planned of int list

  val schedule_to_string : schedule -> string

  (** Parses the closed-form schedules only; [Planned] carries a
      payload no string supplies. *)
  val schedule_of_string : string -> schedule option

  type t

  (** [create ~budget_nodes ()] makes an empty segmented tape that
      materializes at most [budget_nodes] node slots (rounded down to
      whole slabs, at least one slab).  [slab_nodes] defaults to
      [max 16 (min 65536 (budget_nodes / 8))]; explicit values below 16
      raise [Invalid_argument], as do non-positive [budget_nodes] or
      [snapshot_slots]. *)
  val create :
    ?slab_nodes:int ->
    ?snapshot_slots:int ->
    ?schedule:schedule ->
    budget_nodes:int ->
    unit ->
    t

  include Tape_intf.TAPE with type t := t

  (** Nodes per storage slab. *)
  val slab_nodes : t -> int

  (** Bytes of off-heap tape storage currently reserved (diagnostic). *)
  val reserved_bytes : t -> int

  (** Register the replay hooks; must be called before any push.
      [capture ()] snapshots restart state at the current boundary and
      returns the thunk that restores it; [replay_step s] re-executes
      segment [s] (the program between boundaries [s] and [s+1],
      re-pushing the same nodes). *)
  val set_program :
    t -> capture:(unit -> unit -> unit) -> replay_step:(int -> unit) -> unit

  (** Mark a program-step boundary.  The first call ends the prelude;
      snapshots are taken here per the schedule. *)
  val start_segment : t -> unit

  type stats = {
    s_schedule : schedule;
    s_budget_nodes : int;  (** as requested at [create] *)
    s_slab_nodes : int;
    s_total_nodes : int;  (** recording length *)
    s_segments : int;  (** [start_segment] boundaries *)
    s_snapshots : int;  (** snapshots taken, including replay-time *)
    s_replays : int;  (** replay passes during [backward] *)
    s_replayed_nodes : int;  (** nodes re-pushed by those passes *)
    s_peak_live_nodes : int;  (** peak materialized node slots *)
  }

  val stats : t -> stats
end

(** Counting tape: the recording half of a tape ({!Tape_intf.RECORD})
    with no storage.  Each push returns the id the dense tape would
    assign, so [length] after a run through [Reverse.Record (Counting)]
    is that run's tape size.  It has no sweep and no {!Tape_intf.max_nodes}
    limit: it can size recordings no real tape could hold.  [capacity]
    is always 0. *)
module Counting : sig
  type t

  val create : unit -> t

  include Tape_intf.RECORD with type t := t
end
