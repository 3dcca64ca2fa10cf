(** The discovery ranking (AutoCheck's data-dependency criterion, arXiv
    2408.06082, applied to the checkpoint-set {e choice} rather than its
    scrutiny): every mutable state field of a kernel is ranked on three
    axes and folded into one typed verdict.

    The axes:
    - {b live-across-boundary} — the field may be read after the
      checkpoint boundary before any kill ([Mayread] in the §11 effect
      lattice);
    - {b output-reaching} — a may-dependence path from the field to the
      synthetic [@output] sink exists;
    - {b recomputable} — the field's regeneration writes draw only on
      kept (checkpointed) state, its own regenerated values, and
      constants/locals, detected as a fixpoint over the dependence
      graph (AutoCheck's pruning rule).

    The verdict lattice and its soundness asymmetry (DESIGN.md §15):
    only [Killed]/[Untouched] fields — whose checkpointed value is
    {e provably never consumed} by the post-boundary cone, hence has
    zero derivative — may be ranked prunable.  A live field without a
    resolved output path stays [Unknown] and inside the proposed set: a
    missing edge may be taint lost through an opaque value, so absence
    of a path is never evidence of deadness.  The recomputability
    fixpoint only picks the {e justification} of an already-sound prune
    (regenerate vs plain dead store); it never prunes on its own. *)

module Verdict = Scvad_activity.Verdict

(** Per-field verdict.  [Required] and [Unknown] fields form the
    proposed checkpoint set; the two prunable verdicts are the
    discovery dividend. *)
type verdict = Required | Prunable_recomputable | Prunable_dead | Unknown

val verdict_name : verdict -> string
(** ["required"] / ["prunable-recomputable"] / ["prunable-dead"] /
    ["unknown"] *)

val verdict_of_name : string -> verdict option
val is_prunable : verdict -> bool

type field_rank = {
  f_field : string;  (** the mutable state field *)
  f_var : string option;
      (** hand-declared checkpoint variable backed by the field, when
          one exists — [None] marks a discovered-but-undeclared field *)
  f_kind : Verdict.kind option;  (** declared kind, when declared *)
  f_elements : int option;
  f_live : bool;  (** axis (a): read after the boundary before any kill *)
  f_reaches : bool;  (** axis (b): may-dependence path to [@output] *)
  f_recomputable : bool;  (** axis (c): regenerable from kept state *)
  f_verdict : verdict;
  f_reason : string;
  f_assumed : bool;  (** forced by a [(* discover: assume … *)] pragma *)
}

type app_ranks = {
  r_app : string;
  r_source : string;
  r_resolved : bool;
      (** false when the abstract interpretation failed and every field
          is [Unknown] *)
  r_fields : field_rank list;  (** sorted by field name *)
  r_notes : string list;
}

type proposals = app_ranks list

val find_field : app_ranks -> field:string -> field_rank option

(** Fields of the proposed checkpoint set ([Required] or [Unknown]),
    sorted. *)
val discovered_fields : app_ranks -> string list

(** Hand-declared variables whose backing field is ranked prunable —
    candidate dead weight in the declaration, with the ranking as
    evidence. *)
val pruned_vars : app_ranks -> field_rank list

(** Declared float variables ranked prunable: the discover gate's skip
    list for the analyzer (mirrors the activity fast path). *)
val pruned_float_vars : app_ranks -> string list

(** Discovered-but-undeclared fields the proposal adds ([Required]
    with no backing declaration) — new scenario candidates. *)
val added_fields : app_ranks -> field_rank list

val count_verdict : proposals -> verdict -> int

(** Rank every state field of [model].  [absint] is the abstract
    interpreter's outcome when it resolved; with none every field is
    [Unknown] (the conservative bottom).  Its leak facts block
    recomputable justifications but never affect prunability itself. *)
val rank :
  ?absint:Scvad_activity.Absint.outcome ->
  Scvad_activity.Model.t ->
  field_rank list
