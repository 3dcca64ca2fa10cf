(** Little-endian reader for the checkpoint format.

    A reader consumes fixed-width little-endian values from a prefix of
    an immutable string with an explicit cursor, raising {!Underrun}
    past the end.  Integers are encoded as their 64-bit two's-complement
    image; floats as IEEE-754 bits. *)

type t

(** Raised when a read runs past the end of the data. *)
exception Underrun

(** [of_prefix data len] reads the first [len] bytes of [data].  Raises
    [Invalid_argument] when [len] is outside [0, String.length data]. *)
val of_prefix : string -> int -> t

(** Bytes left before the cursor hits the end. *)
val remaining : t -> int

val u8 : t -> int

(** 4 bytes as an unsigned integer. *)
val u32 : t -> int

(** 8 bytes as a two's-complement integer. *)
val int_from_i64 : t -> int

(** [raw r len]: [len] raw bytes without a length prefix. *)
val raw : t -> int -> string

(** [u32] length prefix followed by that many raw bytes. *)
val str : t -> string

(** [f64s r n]: [n] consecutive doubles. *)
val f64s : t -> int -> float array

(** [f32s r n]: [n] consecutive singles, widened to doubles. *)
val f32s : t -> int -> float array

(** [ints_from_i64 r n]: [n] consecutive 64-bit integers. *)
val ints_from_i64 : t -> int -> int array
