(** Mixed-precision checkpointing — the paper's §VII future work.

    A plan splits each float variable by impact magnitude: high-impact
    elements stored in double precision, low-impact elements in single
    precision, uncritical elements dropped.  {!experiment} measures the
    restart output error of a given threshold and compares it with the
    first-order prediction Σ |g{_i}|·|x{_i} − fl32(x{_i})|. *)

open Scvad_ad

type plan = {
  name : string;
  high : Scvad_checkpoint.Regions.t;  (** double precision *)
  low : Scvad_checkpoint.Regions.t;  (** single precision *)
}

val plan_of_impact : threshold:float -> Impact.var_impact -> plan
val plans_of_report : threshold:float -> Impact.report -> plan list

(** Round to IEEE single precision. *)
val to_f32 : float -> float

(** Mixed-precision snapshot: per planned variable an F64 section over
    the high-impact regions plus an F32 companion over the low-impact
    regions; unplanned variables and integers stay full. *)
val snapshot :
  plans:plan list ->
  app:string ->
  iteration:int ->
  float_vars:Float_scalar.t Variable.t list ->
  int_vars:Variable.int_t list ->
  unit ->
  Scvad_checkpoint.Ckpt_format.file

(** Restore through {!Pruned.restore_files}: each variable's base
    section, then its F32 companion over it; uncritical slots hold
    [poison].  Returns the checkpointed iteration.  Raises
    [Invalid_argument "Mixed.restore: ..."] when a variable has no
    section or a section's element count or [spe] differs. *)
val restore :
  ?poison:Scvad_checkpoint.Failure.poison ->
  Scvad_checkpoint.Ckpt_format.file ->
  float_vars:Float_scalar.t Variable.t list ->
  int_vars:Variable.int_t list ->
  int

type experiment = {
  threshold : float;
  golden_output : float;
  restarted_output : float;
  abs_error : float;  (** measured |golden − restarted| *)
  predicted_error : float;  (** first-order bound *)
  full_bytes : int;  (** all-double checkpoint payload *)
  mixed_bytes : int;  (** mixed-precision checkpoint payload *)
  low_elements : int;
  high_elements : int;
  dropped_elements : int;
}

(** Run the mixed-precision restart at boundary [at_iter] (default 1)
    with the given threshold; the impact window covers the whole
    remaining run. *)
val experiment :
  ?at_iter:int -> ?niter:int -> threshold:float -> (module App.S) -> experiment
