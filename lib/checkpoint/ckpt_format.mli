(** Checkpoint file format: header, one section per checkpoint variable,
    trailing CRC-32.

    A {e full} section carries every scalar of its variable (the paper's
    baseline).  A {e pruned} section carries only the elements covered by
    its critical {!Regions} plus the region bounds themselves — the
    paper's optimized checkpoint with its auxiliary file. *)

exception Corrupt of string

val magic : string

type payload =
  | F64 of float array
  | I64 of int array
  | F32 of float array
      (** values rounded to IEEE single precision on encode — the
          mixed-precision extension (4 bytes per scalar) *)

type section = {
  name : string;
  dims : int array;  (** logical element shape *)
  spe : int;  (** scalars per logical element (2 for FT's dcomplex) *)
  regions : Regions.t option;  (** [None] = full section *)
  payload : payload;  (** packed values, element-major *)
}

type file = { app : string; iteration : int; sections : section list }

(** Number of logical elements of the variable. *)
val element_count : section -> int

(** Serialize; raises [Invalid_argument] on malformed sections (a
    payload of the wrong length, ill-formed regions or a region ending
    past the section's elements) and on a u32 field (iteration, rank,
    dims, spe, lengths, region count) outside [0, 2{^32}). *)
val encode : file -> string

(** Exact byte length of [encode file], computed without encoding. *)
val encoded_size : file -> int

(** Parse and verify CRC; raises {!Corrupt}, also for a region ending
    past its section's elements (["region out of bounds"]). *)
val decode : string -> file

(** The region walker.  Both directions take a span accessor
    [f lo hi a off]: elements [\[lo, hi)] against the packed array [a]
    from slot [off] on, [spe] scalars per element, element-major; each
    covered region is one call.

    [gather ~create ~spe regions read] packs every element covered by
    [regions] into [create (cardinal regions * spe)]: a pruned payload
    read straight from its source. *)
val gather :
  create:(int -> 'a array) ->
  spe:int ->
  Regions.t ->
  (int -> int -> 'a array -> int -> unit) ->
  'a array

(** [scatter_floats ~who s ?poison write] hands every covered region of
    [s] to [write] with the stored scalars.  With [poison] it also writes
    [poison] into every span the section does not cover (proving on
    restart that uncritical slots are never read); without it those
    spans are left alone, so a later section overlays an earlier one.
    Raises [Invalid_argument], prefixed by [who] and naming the section,
    on an integer payload. *)
val scatter_floats :
  who:string ->
  section ->
  ?poison:float ->
  (int -> int -> float array -> int -> unit) ->
  unit

(** Integer analogue of {!scatter_floats}; refuses a float payload. *)
val scatter_ints :
  who:string ->
  section ->
  ?poison:int ->
  (int -> int -> int array -> int -> unit) ->
  unit

(** Payload bytes (8 per double/int scalar, 4 per single), the paper's
    storage metric. *)
val payload_bytes : section -> int

(** Bytes of region metadata (the auxiliary-file cost); 0 when full. *)
val aux_bytes : section -> int

(** Sidecar auxiliary file in the paper's spirit: one line per pruned
    variable with its critical spans. *)
val aux_file_string : file -> string

val write_file : string -> file -> unit
val read_file : string -> file
