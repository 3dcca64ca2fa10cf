(* Little-endian reader for the checkpoint format.  Each fixed-width read
   is one range check against the reader's limit and one load. *)

type t = { data : string; limit : int; mutable pos : int }

exception Underrun

let of_prefix data limit =
  if limit < 0 || limit > String.length data then invalid_arg "Bytesio.of_prefix";
  { data; limit; pos = 0 }

let remaining r = r.limit - r.pos

(* Claim [n] bytes at the cursor and return their offset. *)
let take r n =
  if n < 0 || n > remaining r then raise Underrun;
  let at = r.pos in
  r.pos <- at + n;
  at

let u8 r = Char.code r.data.[take r 1]
let u32 r = Int32.to_int (String.get_int32_le r.data (take r 4)) land 0xFFFF_FFFF
let int_from_i64 r = Int64.to_int (String.get_int64_le r.data (take r 8))

(* [len] raw bytes without a length prefix. *)
let raw r len = String.sub r.data (take r len) len

let str r =
  let len = u32 r in
  raw r len

(* Arrays of [n] fixed-width scalars: one range check for the whole run
   (which also rejects an [n] whose byte count would overflow), then
   one load per scalar. *)
let run r n width =
  if n < 0 || n > remaining r / width then raise Underrun;
  take r (n * width)

let f64s r n =
  let at = run r n 8 in
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    a.(i) <- Int64.float_of_bits (String.get_int64_le r.data (at + (8 * i)))
  done;
  a

let f32s r n =
  let at = run r n 4 in
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    a.(i) <- Int32.float_of_bits (String.get_int32_le r.data (at + (4 * i)))
  done;
  a

let ints_from_i64 r n =
  let at = run r n 8 in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- Int64.to_int (String.get_int64_le r.data (at + (8 * i)))
  done;
  a
