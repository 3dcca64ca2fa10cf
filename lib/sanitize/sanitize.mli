(** Dynamic write-set sanitizer: the falsifier half of the race-freedom
    certification (DESIGN.md §17).

    The static pass ([lib/racefree]) proves fan-out closures write
    disjoint regions; this module hunts witnesses against those
    certificates at runtime.  While a session is {e armed}, every
    sanitized pool batch records the spans each shard writes through the
    instrumented mutation points (checkpoint-variable writes) and checks
    cross-shard disjointness when the batch joins.  Two shards of one
    batch touching overlapping spans of the same object is a witness:
    under some schedule those writes race.

    Recording is sampled under a per-shard span budget, so the sanitizer
    is a falsifier, not a verifier — a clean run raises confidence, a
    witness is a hard counterexample.  Everything here is standard
    library only; the pool and the core variables depend on this module,
    never the reverse. *)

(** One recorded write: the half-open element range [\[lo, hi)] of the
    object identified by [obj] (a {!fresh_id} identity), tagged with the
    instrumentation point that observed it. *)
type span = { s_obj : int; s_lo : int; s_hi : int; s_tag : string }

(** Two shards of one batch wrote overlapping spans of the same object:
    the overlap is [\[w_lo, w_hi)].  Shards are batch task indices, so a
    witness is deterministic in the inputs, not in the schedule. *)
type witness = {
  w_batch : string;  (** label of the sanitized batch *)
  w_obj : int;
  w_shard_a : int;
  w_tag_a : string;
  w_shard_b : int;
  w_tag_b : string;
  w_lo : int;
  w_hi : int;
}

val witness_to_text : witness -> string

(** Session totals returned by {!disarm}. *)
type stats = {
  batches : int;  (** sanitized batches joined while armed *)
  spans : int;  (** spans recorded across all shards *)
  dropped : int;  (** writes not recorded because a shard hit its budget *)
  witnesses : witness list;
}

(** Process-unique object identity for an instrumented mutable object.
    Thread-safe; never returns the same value twice. *)
val fresh_id : unit -> int

(** [arm ?budget ()] starts a sanitizer session: every subsequent pool
    batch records write sets ([budget] spans per shard, default 512)
    until {!disarm}.  Resets any previous session's findings. *)
val arm : ?budget:int -> unit -> unit

(** True between {!arm} and {!disarm}. *)
val armed : unit -> bool

(** End the session and return its accumulated findings. *)
val disarm : unit -> stats

(** [record ~obj ~lo ~hi ~tag] notes that the current shard wrote
    [\[lo, hi)] of [obj].  A no-op outside a sanitized shard (in
    particular: in sequential code, in un-sanitized batches, and always
    when no session is armed), so instrumentation points may call it
    unconditionally.  Adjacent and overlapping spans of the same object
    and tag coalesce in place, so element-wise loops cost one live span. *)
val record : obj:int -> lo:int -> hi:int -> tag:string -> unit

(** {1 Batch plumbing (used by [Pool]; not part of the public story)} *)

type batch

(** [batch_start ~label n] opens a sanitized batch of [n] shards. *)
val batch_start : label:string -> int -> batch

(** [in_shard b i f] runs [f ()] with writes attributed to shard [i];
    restores the previous attribution on every exit path.  Nested
    sequential work inside [f] keeps the attribution, which is exactly
    right: a nested in-worker map runs in its caller's shard. *)
val in_shard : batch -> int -> (unit -> 'a) -> 'a

(** Check cross-shard disjointness and fold the batch's findings into
    the session.  Call once, after every shard has settled. *)
val batch_join : batch -> unit
