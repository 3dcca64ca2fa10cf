(** Checkpoint variable views.

    A variable (paper §III-A: "a memory location paired with an
    associated symbolic name") is exposed to the analyzer and the
    checkpoint library as an accessor view over live kernel state,
    generic in the scalar type.  A variable has logical {e elements},
    each made of [spe] scalars ([spe] = 2 for FT's dcomplex cells);
    criticality is judged per element, as in the paper's Table II. *)

type 'a t = {
  name : string;
  shape : Scvad_nd.Shape.t;
  spe : int;  (** scalars per logical element *)
  get : int -> int -> 'a;  (** [get element slot] *)
  set : int -> int -> 'a -> unit;
  doc : string;  (** why the variable must be checkpointed (Table I) *)
}

val elements : 'a t -> int

(** [elements * spe]. *)
val scalars : 'a t -> int

(** Full-variable storage cost: 8 bytes per scalar. *)
val payload_bytes : 'a t -> int

(** View over a flat array, one scalar per element. *)
val of_array : name:string -> ?doc:string -> Scvad_nd.Shape.t -> 'a array -> 'a t

(** View over a lone scalar held in a ref (e.g. EP's sx). *)
val of_ref : name:string -> ?doc:string -> 'a ref -> 'a t

(** General accessor view; raises on [spe <= 0]. *)
val make :
  name:string ->
  ?doc:string ->
  shape:Scvad_nd.Shape.t ->
  spe:int ->
  get:(int -> int -> 'a) ->
  set:(int -> int -> 'a -> unit) ->
  unit ->
  'a t

(** Lift every scalar in place and return the lifted values
    (element-major).  The snapshot matters: the run may overwrite the
    variable, but criticality is a property of the values that were
    checkpointed — the ones lifted here. *)
val lift_capture : 'a t -> ('a -> 'a) -> 'a array

(** Boundary snapshot: every scalar, element-major ([spe] slots per
    element).  Together with {!restore} this is the in-memory checkpoint
    used by the falsifier's trials and the segmented tape's replay. *)
val snapshot : 'a t -> 'a array

(** Write a {!snapshot} back; raises [Invalid_argument] on a length
    mismatch. *)
val restore : 'a t -> 'a array -> unit

(** [mask_and_magnitudes_of_snapshot v snapshot magnitude_of] computes,
    in one scan, the per-element criticality mask and the per-element
    derivative magnitude (max of [abs (magnitude_of slot)] over the
    element's scalar slots).  An element is critical iff its magnitude
    is nonzero (NaN counts as critical): an element is critical as soon
    as any of its scalar slots has a nonzero magnitude. *)
val mask_and_magnitudes_of_snapshot :
  'a t -> 'a array -> ('a -> float) -> bool array * float array

(** {1 Integer variables}

    AD does not apply to integers; criticality is either declared (the
    paper's "its impact is obvious as the index variable of a
    for-loop") or delegated to the integer dependence tracer. *)

type int_criticality =
  | Always_critical of string  (** justification *)
  | By_taint  (** resolved by the app's integer-dependence analysis *)

type int_t = {
  iname : string;
  ishape : Scvad_nd.Shape.t;
  iget : int -> int;
  iset : int -> int -> unit;
  icrit : int_criticality;
  idoc : string;
}

val int_elements : int_t -> int
val int_payload_bytes : int_t -> int

(** Integer analogue of {!snapshot} / {!restore}. *)
val int_snapshot : int_t -> int array

val int_restore : int_t -> int array -> unit

val int_of_ref :
  name:string -> ?doc:string -> crit:int_criticality -> int ref -> int_t

val int_of_array :
  name:string ->
  ?doc:string ->
  crit:int_criticality ->
  Scvad_nd.Shape.t ->
  int array ->
  int_t

(** C-like declaration, e.g. ["double u[12][13][13][5]"]. *)
val declaration_of : ctype:string -> name:string -> shape:Scvad_nd.Shape.t -> string

(** Declaration of a float variable ("double"/"dcomplex" by [spe]). *)
val declaration : 'a t -> string

val int_declaration : int_t -> string
