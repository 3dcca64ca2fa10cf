(** Criticality reports: per-variable element masks plus the counts of
    the paper's Table II. *)

type kind = Float_var | Int_var

type var_report = {
  name : string;
  shape : Scvad_nd.Shape.t;
  spe : int;
  kind : kind;
  mask : bool array;  (** per logical element: critical? *)
  regions : Scvad_checkpoint.Regions.t;  (** critical spans (aux file) *)
}

(** Build a report from a mask; raises if mask length and shape
    disagree. *)
val of_mask :
  name:string ->
  shape:Scvad_nd.Shape.t ->
  spe:int ->
  kind:kind ->
  bool array ->
  var_report

val total : var_report -> int
val critical : var_report -> int
val uncritical : var_report -> int
val uncritical_rate : var_report -> float

type mode = Reverse_gradient | Forward_probe | Activity_dependence

val mode_name : mode -> string

(** How the recording was held in memory.  [None] on {!report} means
    the tape stored every node; [Some p] means the tape ran under
    [p.t_budget_nodes] and the fields account for the
    recompute-vs-store trade: [t_peak_live_nodes] never exceeds the
    budget (rounded to whole slabs) and [t_replayed_nodes] is the extra
    recomputation the backward sweep paid for it. *)
type tape_profile = {
  t_schedule : string;  (** ["binomial"] | ["planned[n]"] *)
  t_budget_nodes : int;
  t_segments : int;
  t_snapshots : int;
  t_replays : int;
  t_replayed_nodes : int;
  t_peak_live_nodes : int;
}

(** What the backward sweep actually did.  [w_visited_nodes] counts the
    nodes whose adjoint (or dependence mark) was nonzero when inspected
    — the active subgraph the frontier sweep's cost is proportional to.
    The zero-adjoint rest is the paper's uncriticality signal and is
    never walked.  [None] for forward-probe runs (no tape, no
    sweep). *)
type sweep_profile = {
  w_visited_nodes : int;
  w_swept_nodes : int;  (** sweep range: output node + 1 *)
  w_active_fraction : float;  (** visited / swept; 0 on an empty sweep *)
}

type report = {
  app : string;
  at_iteration : int;  (** checkpoint boundary the analysis models *)
  analyzed_until : int;  (** main-loop iterations covered *)
  mode : mode;
  tape_nodes : int;  (** recorded data-flow graph size *)
  tape_profile : tape_profile option;  (** memory-budgeted recording? *)
  sweep_profile : sweep_profile option;  (** what backward visited *)
  vars : var_report list;
}

(** Find a variable; raises [Invalid_argument] naming the missing
    variable and listing the report's variables. *)
val find : report -> string -> var_report

val find_opt : report -> string -> var_report option

(** Element-weighted uncritical rate over every variable. *)
val aggregate_uncritical_rate : report -> float
