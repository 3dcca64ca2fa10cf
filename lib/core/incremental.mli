(** Incremental checkpointing baseline (related work: dirty-tracking
    checkpoints at element granularity) and its combination with
    criticality pruning.

    Policies compared: full / pruned (the paper) / incremental (changed
    elements only) / combined (changed ∩ critical).  A delta checkpoint
    is an ordinary pruned section; restore writes the base with poison
    in the slots it does not store, then overlays each delta, so
    uncritical slots stay poisoned. *)

open Scvad_ad

type mode = Incremental_only | Combined_with of Criticality.report

type tracker

val create_tracker : unit -> tracker

(** First call per variable = base checkpoint; later calls = deltas
    against the tracker's last-checkpointed values (bitwise change
    detection). *)
val snapshot :
  tracker ->
  mode:mode ->
  app:string ->
  iteration:int ->
  float_vars:Float_scalar.t Variable.t list ->
  int_vars:Variable.int_t list ->
  unit ->
  Scvad_checkpoint.Ckpt_format.file

(** Restore from the base + delta chain, oldest first, through
    {!Pruned.restore_files}; returns the newest file's iteration.
    Raises [Invalid_argument "Incremental.restore: ..."] on an empty
    chain, when no file has a section for a variable, or when a
    section's element count or [spe] differs from its variable's. *)
val restore :
  ?poison:Scvad_checkpoint.Failure.poison ->
  files:Scvad_checkpoint.Ckpt_format.file list ->
  float_vars:Float_scalar.t Variable.t list ->
  int_vars:Variable.int_t list ->
  unit ->
  int

type policy_bytes = {
  full : int list;  (** payload bytes per checkpoint *)
  pruned : int list;
  incremental : int list;
  combined : int list;
}

(** Per-checkpoint payload bytes of all four policies over a run that
    checkpoints every iteration after [warmup] (default 1). *)
val storage_comparison :
  ?warmup:int ->
  checkpoints:int ->
  (module App.S) ->
  Criticality.report ->
  policy_bytes
