(** Emitters for the paper's three tables, the checkpoint-policy
    comparison and the Young operational model. *)

(** C-like declarations of an application's checkpoint variables. *)
val declarations : (module App.S) -> string list

(** Table I: variables necessary for checkpointing. *)
val table1 : (module App.S) list -> string

(** Table II: uncritical / total / rate per variable. *)
val table2 : Criticality.report list -> string

type table3_row = {
  app : string;
  original_bytes : int;  (** full checkpoint payload *)
  optimized_bytes : int;  (** pruned checkpoint payload *)
  aux_bytes : int;  (** the auxiliary (region bounds) file *)
}

(** 1 - optimized/original.  Matches the paper's accounting: checkpoint
    payloads only; the auxiliary file is a separate artifact. *)
val saved_rate : table3_row -> float

(** Snapshot one application full and pruned at [at_iter] (default 1)
    and measure both. *)
val table3_row :
  ?at_iter:int -> (module App.S) -> Criticality.report -> table3_row

(** Table III: checkpointing storage. *)
val table3 : table3_row list -> string

(** Checkpoint-policy comparison (related-work baseline): payload bytes
    of the second of three checkpoints under full, pruned, incremental
    and combined policies ({!Incremental.storage_comparison}). *)
val policy_table : ((module App.S) * Criticality.report) list -> string

(** Young operational model: each row's pruned/full payload ratio scales
    the checkpoint cost of a system with C = 60 s, MTBF = 24 h and
    R = 300 s ({!Scvad_checkpoint.Interval.compare_pruning}); prints the
    optimal intervals and the drop in expected overhead. *)
val operational_table : table3_row list -> string
