(** Conservative abstract interpretation of a kernel's post-checkpoint
    cone ([run] then [output]) over the extracted {!Model}: the one
    parsetree walk behind the activity, guard and discover passes.
    Produces, per state field:

    - a first-effect status — [Untouched] / [Killed] (fully overwritten
      before any possible read) / [Mayread].  The first two are proofs
      that the checkpointed value is never consumed: branch joins are
      pessimistic and loop bodies are conservative about zero-trip
      execution;
    - membership in the may-influence set of the output (backward
      closure of a flow-insensitive dependence edge graph seeded at the
      synthetic [@output] sink);
    - a read footprint: the distinct affine read sites with constant
      loop ranges, or [Top] as soon as any read is unresolvable;
    - the float-to-discrete escape sites it taints (branch, conversion,
      subscript, comparison, kink) and whether its taint leaked into
      code the pass cannot see.

    A loop body is walked again until a pass records nothing new and
    moves no cell allocated before the pass, at most three times, so a
    converged nest costs about one walk per level rather than three to
    the power of its depth, even when its body allocates its own
    [ref]s and arrays.

    Unrecognized constructs always degrade toward
    [Mayread]/[Top]/more edges/more escapes and leaks; {!Incomplete}
    aborts the app to a fully-Unknown verdict. *)

module SS : Set.S with type elt = string

exception Incomplete of string

type feffect = Untouched | Killed | Mayread

val feffect_name : feffect -> string

(** Integers affine in symbols: [Affine (base, [(id, coeff); …])] is
    base + Σ coeff·symbol, terms sorted by id with no zero coefficient.
    The symbols are loop counters here and the shard index in the race
    pass. *)
type iexpr = Const of int | Affine of int * (int * int) list | Iunknown

val iadd : iexpr -> iexpr -> iexpr
val isub : iexpr -> iexpr -> iexpr

(** [Iunknown] unless one side is constant. *)
val imul : iexpr -> iexpr -> iexpr

(** base + Σ coeff·v, each v ranging over an inclusive [lo, hi]. *)
type site = { s_base : int; s_terms : (int * int * int) list }

(** [Sites] lists each distinct site once, in [compare] order. *)
type footprint = Sites of site list | Top

type outcome = {
  o_status : (string * feffect) list;
  o_reaches : SS.t;
  o_edges : (string * SS.t) list;
      (** flow-insensitive may-dependence edges, destination to sources,
          sorted by destination and including the synthetic ["@output"]
          sink.  Sources mix state fields with local temporaries; filter
          on {!Model.is_state_field} when only fields matter.  The
          discover pass runs its recomputability fixpoint over these. *)
  o_footprints : (string * footprint) list;
  o_notes : string list;  (** activity imprecision notes *)
  o_escapes : (Escapes.site * SS.t) list;
      (** escape sites with the state fields tainting them, closed over
          the write-edge graph (field-to-field laundering included) *)
  o_leaked : SS.t;  (** fields whose taint reached unseen code (closed) *)
  o_escape_notes : string list;  (** escape transparency notes *)
  o_steps : int;
      (** interpretation steps spent (one per expression visited); the
          walk aborts with {!Incomplete} past 50M *)
}

(** Raises {!Incomplete} when the cone cannot be interpreted at all
    (missing [run]/[output], fuel exhaustion). *)
val analyze : Model.t -> outcome
