(** Resilient versioned checkpoint directory.

    Writes are atomic (temp file + rename) and, by default, {e
    verified}: the temp file is read back and compared byte for byte
    with the encoded file before the rename, so a torn or bit-flipped write can never displace the
    previous good checkpoint.  Loads return typed errors instead of
    raising.  Retention is multi-level: dense recent versions plus a
    sparse grid of older ones.  All I/O can be routed through an
    {!Io_fault} plan for deterministic fault injection. *)

(** [keep_last = Some k] retains the [k] newest checkpoints;
    additionally any older iteration divisible by [keep_every] survives
    (the sparse level of the ladder).  [keep_last = None] disables GC
    entirely. *)
type retention = { keep_last : int option; keep_every : int option }

type t

(** A write that failed verification [attempts] times in a row; the
    temp file is removed and the previous checkpoint is untouched. *)
exception Write_failed of { path : string; attempts : int; reason : string }

(** [create ?retention ?verify_writes ?faults dir] opens (creating if
    needed) a checkpoint directory.  [verify_writes] (default [true])
    re-reads every write and compares it with the encoded bytes before
    the atomic rename.
    [faults] routes all checkpoint I/O through a fault-injection plan.
    Raises [Invalid_argument] on a non-positive retention level. *)
val create :
  ?retention:retention ->
  ?verify_writes:bool ->
  ?faults:Io_fault.plan ->
  string ->
  t

val dir : t -> string
val retention : t -> retention
val path_of_iteration : t -> int -> string

(** Iterations present, ascending. *)
val list_iterations : t -> int list

(** Atomic verified save, then retention GC.  With [sidecar_aux], also
    writes the paper-style [.aux] sidecar listing critical spans.
    Returns the checkpoint path.  Raises {!Write_failed} if the data
    never lands intact within the bounded rewrite attempts. *)
val save : ?sidecar_aux:bool -> t -> Ckpt_format.file -> string

(** Why a checkpoint could not be loaded. *)
type load_error = Missing | Io_error of string | Corrupt of string

val describe_error : load_error -> string

(** CRC-verified load; never raises on bad data. *)
val load : t -> int -> (Ckpt_format.file, load_error) result

(** Newest checkpoint, if any; raises {!Ckpt_format.Corrupt} if the
    newest file is invalid (use {!latest_valid} to fall back). *)
val latest : t -> Ckpt_format.file option

(** Walk backward from the newest checkpoint, skipping invalid ones.
    Returns the newest valid checkpoint (with its iteration) or [None],
    plus every skipped iteration with the reason, newest first. *)
val latest_valid :
  t -> (int * Ckpt_format.file) option * (int * load_error) list

(** On-disk bytes of one checkpoint including its sidecar. *)
val disk_bytes : t -> int -> int

(** Delete every checkpoint in the store. *)
val wipe : t -> unit
