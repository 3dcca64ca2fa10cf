(** CRC-32 (IEEE), slicing-by-8.  Integrity check for checkpoint files. *)

(** [update crc bytes off len] extends a running checksum over
    [len] bytes of [bytes] starting at [off].  Start from [0l].  Raises
    [Invalid_argument] when the range is not inside [bytes]. *)
val update : int32 -> Bytes.t -> int -> int -> int32

val of_bytes : Bytes.t -> int32
val of_string : string -> int32
