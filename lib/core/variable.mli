(** Checkpoint variable views.

    A variable (paper §III-A: "a memory location paired with an
    associated symbolic name") is exposed to the analyzer and the
    checkpoint library as a span view over live kernel state, generic in
    the scalar type: floats (or AD scalars) and integers alike.  A variable has logical {e elements}, each made of
    [spe] scalars ([spe] = 2 for FT's dcomplex cells); criticality is
    judged per element, as in the paper's Table II.

    Every access is a span: [read lo hi dst off] copies elements
    [\[lo, hi)] into [dst] from slot [off] on, [spe] scalars per
    element, element-major; [write lo hi src off] copies them back.  A
    view over a flat array blits; FT's dcomplex cells build one cell per
    element.  Each [write] records one sanitizer span, the scalar slots
    [\[lo * spe, hi * spe)]. *)

type 'a t = {
  name : string;
  shape : Scvad_nd.Shape.t;
  spe : int;  (** scalars per logical element *)
  fill : 'a;  (** what a fresh buffer holds before a [read] overwrites it *)
  read : int -> int -> 'a array -> int -> unit;  (** [read lo hi dst off] *)
  write : int -> int -> 'a array -> int -> unit;  (** [write lo hi src off] *)
  doc : string;  (** why the variable must be checkpointed (Table I) *)
}

val elements : 'a t -> int

(** [elements * spe]. *)
val scalars : 'a t -> int

(** Full-variable storage cost: 8 bytes per scalar. *)
val payload_bytes : 'a t -> int

(** View over a flat array, one scalar per element; spans are
    [Array.blit]s. *)
val of_array : name:string -> ?doc:string -> Scvad_nd.Shape.t -> 'a array -> 'a t

(** General span view; [write] is wrapped to record its sanitizer span.
    Raises on [spe <= 0]. *)
val make :
  name:string ->
  ?doc:string ->
  shape:Scvad_nd.Shape.t ->
  spe:int ->
  fill:'a ->
  read:(int -> int -> 'a array -> int -> unit) ->
  write:(int -> int -> 'a array -> int -> unit) ->
  unit ->
  'a t

(** The [spe] scalars of one element, in a fresh array. *)
val read_element : 'a t -> int -> 'a array

(** Store one element's [spe] scalars (one span of one element). *)
val write_element : 'a t -> int -> 'a array -> unit

(** Lift every scalar in place and return the lifted values
    (element-major).  The snapshot matters: the run may overwrite the
    variable, but criticality is a property of the values that were
    checkpointed — the ones lifted here. *)
val lift_capture : 'a t -> ('a -> 'a) -> 'a array

(** Boundary snapshot: every scalar, element-major ([spe] slots per
    element), read as one span.  Together with {!restore} this is the
    in-memory checkpoint used by the falsifier's trials and the
    segmented tape's replay. *)
val snapshot : 'a t -> 'a array

(** Write a {!snapshot} back as one span; raises [Invalid_argument] on a
    length mismatch. *)
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

(** An integer variable: an [int] view ([spe] = 1, stored as [I64]) and
    how its criticality is decided. *)
type int_t = { view : int t; crit : int_criticality }

(** One mutable int, e.g. a main-loop index: a scalar view over
    [get]/[set]. *)
val int_scalar :
  name:string ->
  doc:string ->
  crit:int_criticality ->
  get:(unit -> int) ->
  set:(int -> unit) ->
  int_t

(** {!of_array} over an [int array]. *)
val int_of_array :
  name:string ->
  ?doc:string ->
  crit:int_criticality ->
  Scvad_nd.Shape.t ->
  int array ->
  int_t

(** C-like declaration, e.g. ["double u[12][13][13][5]"] or ["int step"].
    [ctype] defaults to ["dcomplex"] for [spe] = 2 and ["double"]
    otherwise. *)
val declaration : ?ctype:string -> 'a t -> string
