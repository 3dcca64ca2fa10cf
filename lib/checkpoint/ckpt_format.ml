(* Checkpoint file format.

   One file holds the full state of one application at one iteration: a
   header, one section per checkpoint variable, and a trailing CRC-32.
   Sections come in two flavours:

   - full: every scalar of the variable (the baseline the paper compares
     against);
   - pruned: only the elements inside the critical {!Regions} — the
     paper's optimized checkpoint.  The regions are embedded (and also
     exportable as a sidecar auxiliary file, cf. {!aux_file_string}).

   Payload values are packed per logical element: an element owns
   [spe] consecutive scalars (spe = 2 for FT's dcomplex cells). *)

exception Corrupt of string

let magic = "SCVD0001"

(* F32 payloads store values rounded to IEEE single precision — the
   mixed-precision extension (paper §VII: "using lower precision for
   uncritical or even those elements that are of very low impact"). *)
type payload = F64 of float array | I64 of int array | F32 of float array

type section = {
  name : string;
  dims : int array;
  spe : int; (* scalars per logical element *)
  regions : Regions.t option; (* None = full section *)
  payload : payload;
}

type file = { app : string; iteration : int; sections : section list }

let element_count s = Array.fold_left ( * ) 1 s.dims

(* Scalars a payload must carry. *)
let expected_values s =
  let elems =
    match s.regions with
    | None -> element_count s
    | Some r -> Regions.cardinal r
  in
  elems * s.spe

(* Regions may only cover elements the section has. *)
let fits ~elements r =
  List.for_all (fun { Regions.stop; _ } -> stop <= elements) (Regions.spans r)

let payload_length = function
  | F64 a | F32 a -> Array.length a
  | I64 a -> Array.length a

let check_section s =
  if s.spe <= 0 then invalid_arg "Ckpt_format: spe must be positive";
  (match s.regions with
  | Some r when not (Regions.is_well_formed r) ->
      invalid_arg "Ckpt_format: malformed regions"
  | Some r when not (fits ~elements:(element_count s) r) ->
      invalid_arg
        (Printf.sprintf "Ckpt_format: section %S has a region past its %d elements"
           s.name (element_count s))
  | _ -> ());
  if payload_length s.payload <> expected_values s then
    invalid_arg
      (Printf.sprintf "Ckpt_format: section %S carries %d values, expected %d"
         s.name (payload_length s.payload) (expected_values s))

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let scalar_width = function F32 _ -> 4 | F64 _ | I64 _ -> 8

(* Bytes of one section: name, tag, rank, dims, spe, regions flag,
   region bounds, count, payload. *)
let section_size s =
  let regions =
    match s.regions with None -> 0 | Some r -> 4 + (16 * Regions.count_regions r)
  in
  4 + String.length s.name + 1 + 4 + (4 * Array.length s.dims) + 4 + 1 + regions
  + 8
  + (scalar_width s.payload * payload_length s.payload)

let encoded_size file =
  String.length magic + 4 + String.length file.app + 4 + 4
  + List.fold_left (fun acc s -> acc + section_size s) 0 file.sections
  + 8

(* Little-endian writes into the presized output at a moving cursor. *)
type out = { buf : Bytes.t; mutable pos : int }

let u8 o x =
  Bytes.set_uint8 o.buf o.pos x;
  o.pos <- o.pos + 1

let u32 o x =
  if x < 0 || x > 0xFFFF_FFFF then
    invalid_arg (Printf.sprintf "Ckpt_format: %d does not fit a u32 field" x);
  Bytes.set_int32_le o.buf o.pos (Int32.of_int x);
  o.pos <- o.pos + 4

let i64 o x =
  Bytes.set_int64_le o.buf o.pos x;
  o.pos <- o.pos + 8

let str o s =
  u32 o (String.length s);
  Bytes.blit_string s 0 o.buf o.pos (String.length s);
  o.pos <- o.pos + String.length s

let payload o p =
  let b = o.buf and at = o.pos in
  (match p with
  | F64 a ->
      for i = 0 to Array.length a - 1 do
        Bytes.set_int64_le b (at + (8 * i)) (Int64.bits_of_float a.(i))
      done
  | I64 a ->
      for i = 0 to Array.length a - 1 do
        Bytes.set_int64_le b (at + (8 * i)) (Int64.of_int a.(i))
      done
  | F32 a ->
      for i = 0 to Array.length a - 1 do
        Bytes.set_int32_le b (at + (4 * i)) (Int32.bits_of_float a.(i))
      done);
  o.pos <- at + (scalar_width p * payload_length p)

let encode_section o s =
  check_section s;
  str o s.name;
  u8 o (match s.payload with F64 _ -> 0 | I64 _ -> 1 | F32 _ -> 2);
  u32 o (Array.length s.dims);
  Array.iter (u32 o) s.dims;
  u32 o s.spe;
  (match s.regions with
  | None -> u8 o 0
  | Some r ->
      u8 o 1;
      u32 o (Regions.count_regions r);
      List.iter
        (fun { Regions.start; stop } ->
          i64 o (Int64.of_int start);
          i64 o (Int64.of_int stop))
        (Regions.spans r));
  i64 o (Int64.of_int (payload_length s.payload));
  payload o s.payload

(* One presized buffer: the body is written in place, the CRC is taken
   over it in place, and the buffer becomes the result without a copy. *)
let encode file =
  let size = encoded_size file in
  let o = { buf = Bytes.create size; pos = 0 } in
  Bytes.blit_string magic 0 o.buf 0 (String.length magic);
  o.pos <- String.length magic;
  str o file.app;
  u32 o file.iteration;
  u32 o (List.length file.sections);
  List.iter (encode_section o) file.sections;
  assert (o.pos = size - 8);
  i64 o (Int64.of_int32 (Crc32.update 0l o.buf 0 o.pos));
  Bytes.unsafe_to_string o.buf

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let decode_section r =
  let open Bytesio in
  let name = str r in
  let tag = u8 r in
  let rank = u32 r in
  if rank > 16 then raise (Corrupt "absurd rank");
  let dims = Array.init rank (fun _ -> u32 r) in
  let spe = u32 r in
  let regions =
    match u8 r with
    | 0 -> None
    | 1 ->
        let n = u32 r in
        let spans =
          List.init n (fun _ ->
              let start = int_from_i64 r in
              let stop = int_from_i64 r in
              { Regions.start; stop })
        in
        if not (Regions.is_well_formed spans) then
          raise (Corrupt "malformed regions");
        if not (fits ~elements:(Array.fold_left ( * ) 1 dims) spans) then
          raise (Corrupt "region out of bounds");
        Some spans
    | _ -> raise (Corrupt "bad regions flag")
  in
  let count = int_from_i64 r in
  let scalar_bytes = if tag = 2 then 4 else 8 in
  if count < 0 || count > remaining r / scalar_bytes then
    raise (Corrupt "bad count");
  let payload =
    match tag with
    | 0 -> F64 (f64s r count)
    | 1 -> I64 (ints_from_i64 r count)
    | 2 -> F32 (f32s r count)
    | _ -> raise (Corrupt "bad payload tag")
  in
  let s = { name; dims; spe; regions; payload } in
  if payload_length payload <> expected_values s then
    raise (Corrupt "payload length mismatch");
  s

let decode data =
  if String.length data < String.length magic + 8 then
    raise (Corrupt "truncated file");
  let body_len = String.length data - 8 in
  (* Verify the trailing CRC first, over the body in place: all 8 bytes
     of the field, which [encode] writes as the sign-extended 32-bit
     checksum. *)
  let stored_crc = String.get_int64_le data body_len in
  if Int64.of_int32 (Crc32.update 0l (Bytes.unsafe_of_string data) 0 body_len)
     <> stored_crc
  then raise (Corrupt "CRC mismatch");
  let r = Bytesio.of_prefix data body_len in
  (try
     if Bytesio.raw r (String.length magic) <> magic then
       raise (Corrupt "bad magic")
   with Bytesio.Underrun -> raise (Corrupt "truncated header"));
  try
    let app = Bytesio.str r in
    let iteration = Bytesio.u32 r in
    let n = Bytesio.u32 r in
    if n > 1_000_000 then raise (Corrupt "absurd section count");
    let sections = List.init n (fun _ -> decode_section r) in
    if Bytesio.remaining r <> 0 then raise (Corrupt "trailing bytes");
    { app; iteration; sections }
  with Bytesio.Underrun -> raise (Corrupt "truncated body")

(* ------------------------------------------------------------------ *)
(* Scatter/gather between full arrays and pruned payloads              *)
(* ------------------------------------------------------------------ *)

(* The region walker: one span accessor call per covered region, in
   element order, against consecutive slots of the packed array. *)
let gather ~create ~spe regions read =
  let packed = create (Regions.cardinal regions * spe) in
  let pos = ref 0 in
  List.iter
    (fun { Regions.start; stop } ->
      read start stop packed !pos;
      pos := !pos + ((stop - start) * spe))
    (Regions.spans regions);
  packed

(* Hand the section's covered regions to [write], and with [poison]
   every span between them too; without [poison] those spans are left
   alone, so a later section overlays an earlier one.  On a real restart
   uncovered slots hold whatever garbage survived the failure; poisoning
   proves they are never read. *)
let scatter s (packed : 'a array) ?poison write =
  let spe = s.spe in
  let poison_between lo hi =
    match poison with
    | Some p when hi > lo -> write lo hi (Array.make ((hi - lo) * spe) p) 0
    | _ -> ()
  in
  let spans =
    match s.regions with
    | None -> [ { Regions.start = 0; stop = element_count s } ]
    | Some r -> Regions.spans r
  in
  let next, _ =
    List.fold_left
      (fun (next, pos) { Regions.start; stop } ->
        poison_between next start;
        write start stop packed pos;
        (stop, pos + ((stop - start) * spe)))
      (0, 0) spans
  in
  poison_between next (element_count s)

let scatter_floats ~who s ?poison write =
  match s.payload with
  | F64 a | F32 a -> scatter s a ?poison write
  | I64 _ ->
      invalid_arg
        (Printf.sprintf "%s: section %S holds integers, not floats" who s.name)

let scatter_ints ~who s ?poison write =
  match s.payload with
  | I64 a -> scatter s a ?poison write
  | F64 _ | F32 _ ->
      invalid_arg
        (Printf.sprintf "%s: section %S holds floats, not integers" who s.name)

(* ------------------------------------------------------------------ *)
(* Sizes and the sidecar auxiliary file                                *)
(* ------------------------------------------------------------------ *)

(* Paper-style accounting: payload bytes of one section (8 bytes per
   double/int scalar, 4 per single), excluding headers. *)
let payload_bytes s = scalar_width s.payload * payload_length s.payload

(* Auxiliary metadata bytes for a pruned section. *)
let aux_bytes s =
  match s.regions with None -> 0 | Some r -> Regions.aux_bytes r

(* The paper keeps region bounds in a separate auxiliary file; we embed
   them but can also emit the sidecar form. *)
let aux_file_string file =
  let b = Buffer.create 256 in
  List.iter
    (fun s ->
      match s.regions with
      | None -> ()
      | Some r -> Buffer.add_string b (Printf.sprintf "%s %s\n" s.name (Regions.to_string r)))
    file.sections;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* File IO                                                             *)
(* ------------------------------------------------------------------ *)

let write_file path file =
  let data = encode file in
  let oc = open_out_bin path in
  (try output_string oc data
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  decode data
