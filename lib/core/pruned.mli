(** Criticality-driven checkpointing (paper §III-B).

    Bridges the analyzer and the checkpoint library: snapshots pack
    only critical elements (plus the contiguous-region bounds — the
    paper's auxiliary file); restores scatter them back and poison the
    uncritical slots.  Without a report, the same entry points handle
    full checkpoints. *)

open Scvad_ad

(** The one section builder, shared by every policy and both kinds of
    variable.  Without [regions] the section stores every element; with
    them, only the covered ones (element-major, [spe] slots per
    element).  [name] defaults to the variable's; [payload] wraps the
    gathered scalars: {!f64} or {!i64} (the mixed-precision companion
    rounds floats into an [F32]). *)
val section :
  ?regions:Scvad_checkpoint.Regions.t ->
  ?name:string ->
  payload:('a array -> Scvad_checkpoint.Ckpt_format.payload) ->
  'a Variable.t ->
  Scvad_checkpoint.Ckpt_format.section

val f64 : float array -> Scvad_checkpoint.Ckpt_format.payload
val i64 : int array -> Scvad_checkpoint.Ckpt_format.payload

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

(** The one restore path, shared by every policy.  A variable's
    sections are those named [names v] in each of [files], oldest file
    first.  The first writes every slot, with [poison] where it holds no
    value; each later one overwrites only the slots it covers.  Raises
    [Invalid_argument], prefixed with [who], when a variable has no
    section or a section's element count or [spe] differs from the
    variable's. *)
val restore_files :
  who:string ->
  poison:Scvad_checkpoint.Failure.poison ->
  names:(string -> string list) ->
  Scvad_checkpoint.Ckpt_format.file list ->
  float_vars:Float_scalar.t Variable.t list ->
  int_vars:Variable.int_t list ->
  unit

(** Restore a checkpoint into live state through {!restore_files};
    uncritical slots of pruned sections receive [poison] (default NaN —
    loud if ever read).  Returns the checkpointed iteration count.
    Raises [Invalid_argument "Pruned.restore: ..."] when a variable has
    no section or its section's element count or [spe] differs. *)
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
