(* CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8.  Guards
   every checkpoint file against torn writes and bit rot.

   [tables] holds eight 256-entry tables end to end: table 0 is the
   classic byte-at-a-time table, and table [k] advances a byte's
   contribution through [k] further zero bytes.  One step of the main
   loop folds eight input bytes with eight lookups; the byte-wise tail
   uses table 0 alone.  The checksum lives in a native [int] (low 32
   bits), so the loop never allocates. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* Low 32 bits of a little-endian load, as a non-negative int. *)
let u32_at bytes i = Int32.to_int (Bytes.get_int32_le bytes i) land 0xFFFF_FFFF

(* Entry [x land 0xFF] of table [k]: the index is masked to 8 bits and
   offset into the 2048-entry array, so it is always in bounds. *)
let[@inline] look (t : int array) k x = Array.unsafe_get t ((k lsl 8) lor (x land 0xFF))

let update crc (bytes : Bytes.t) off len =
  if off < 0 || len < 0 || off > Bytes.length bytes - len then
    invalid_arg "Crc32.update";
  let t = tables in
  let c = ref (Int32.to_int (Int32.lognot crc) land 0xFFFF_FFFF) in
  let stop8 = off + (len land lnot 7) in
  let i = ref off in
  while !i < stop8 do
    let lo = !c lxor u32_at bytes !i and hi = u32_at bytes (!i + 4) in
    c :=
      look t 7 lo
      lxor look t 6 (lo lsr 8)
      lxor look t 5 (lo lsr 16)
      lxor look t 4 (lo lsr 24)
      lxor look t 3 hi
      lxor look t 2 (hi lsr 8)
      lxor look t 1 (hi lsr 16)
      lxor look t 0 (hi lsr 24);
    i := !i + 8
  done;
  (* the tail's byte positions are inside the range checked above *)
  for j = stop8 to off + len - 1 do
    c := look t 0 (!c lxor Char.code (Bytes.unsafe_get bytes j)) lxor (!c lsr 8)
  done;
  Int32.lognot (Int32.of_int !c)

let of_bytes bytes = update 0l bytes 0 (Bytes.length bytes)
let of_string s = of_bytes (Bytes.unsafe_of_string s)
