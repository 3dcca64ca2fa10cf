(** Criticality-driven checkpointing (paper §III-B).

    Bridges the analyzer and the checkpoint library: snapshots pack
    only critical elements (plus the contiguous-region bounds — the
    paper's auxiliary file); restores scatter them back and poison the
    uncritical slots.  Without a report, the same entry points handle
    full checkpoints. *)

open Scvad_ad

(** Every scalar of a float variable, element-major ([spe] slots per
    element): the payload of a full section. *)
val flatten_float : Float_scalar.t Variable.t -> float array

(** Snapshot the live state of an application instance.
    [report = None] ⇒ full checkpoint; all-critical variables are
    stored as full sections either way (same bytes, no metadata). *)
val snapshot :
  ?report:Criticality.report ->
  app:string ->
  iteration:int ->
  float_vars:Float_scalar.t Variable.t list ->
  int_vars:Variable.int_t list ->
  unit ->
  Scvad_checkpoint.Ckpt_format.file

(** Restore a checkpoint into live state; uncritical slots of pruned
    sections receive [poison] (default NaN — loud if ever read).
    Returns the checkpointed iteration count.  Raises
    [Invalid_argument] on a name/shape mismatch. *)
val restore :
  ?poison:Scvad_checkpoint.Failure.poison ->
  Scvad_checkpoint.Ckpt_format.file ->
  float_vars:Float_scalar.t Variable.t list ->
  int_vars:Variable.int_t list ->
  int

(** Storage accounting for Table III. *)
type storage = {
  payload_bytes : int;  (** 8 bytes per stored scalar *)
  aux_bytes : int;  (** region metadata (the auxiliary file) *)
  file_bytes : int;  (** actual encoded size *)
}

val storage_of_file : Scvad_checkpoint.Ckpt_format.file -> storage
