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

let payload_length = function
  | F64 a | F32 a -> Array.length a
  | I64 a -> Array.length a

let check_section s =
  if s.spe <= 0 then invalid_arg "Ckpt_format: spe must be positive";
  (match s.regions with
  | Some r when not (Regions.is_well_formed r) ->
      invalid_arg "Ckpt_format: malformed regions"
  | _ -> ());
  if payload_length s.payload <> expected_values s then
    invalid_arg
      (Printf.sprintf "Ckpt_format: section %S carries %d values, expected %d"
         s.name (payload_length s.payload) (expected_values s))

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let encode_section b s =
  check_section s;
  let open Bytesio.Wr in
  str b s.name;
  u8 b (match s.payload with F64 _ -> 0 | I64 _ -> 1 | F32 _ -> 2);
  u32 b (Array.length s.dims);
  Array.iter (u32 b) s.dims;
  u32 b s.spe;
  (match s.regions with
  | None -> u8 b 0
  | Some r ->
      u8 b 1;
      u32 b (Regions.count_regions r);
      List.iter
        (fun { Regions.start; stop } ->
          int_as_i64 b start;
          int_as_i64 b stop)
        (Regions.spans r));
  int_as_i64 b (payload_length s.payload);
  match s.payload with
  | F64 a -> Array.iter (f64 b) a
  | I64 a -> Array.iter (int_as_i64 b) a
  | F32 a ->
      Array.iter
        (fun x ->
          let bits = Int32.bits_of_float x in
          for i = 0 to 3 do
            u8 b (Int32.to_int (Int32.shift_right_logical bits (8 * i)) land 0xFF)
          done)
        a

let encode file =
  let b = Bytesio.Wr.create () in
  Buffer.add_string b magic;
  Bytesio.Wr.str b file.app;
  Bytesio.Wr.u32 b file.iteration;
  Bytesio.Wr.u32 b (List.length file.sections);
  List.iter (encode_section b) file.sections;
  let body = Bytesio.Wr.contents b in
  let crc = Crc32.of_string body in
  let tail = Bytesio.Wr.create () in
  Bytesio.Wr.i64 tail (Int64.of_int32 crc);
  body ^ Bytesio.Wr.contents tail

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let decode_section r =
  let open Bytesio.Rd in
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
        Some spans
    | _ -> raise (Corrupt "bad regions flag")
  in
  let count = int_from_i64 r in
  let scalar_bytes = if tag = 2 then 4 else 8 in
  if count < 0 || count > remaining r / scalar_bytes then
    raise (Corrupt "bad count");
  let payload =
    match tag with
    | 0 -> F64 (Array.init count (fun _ -> f64 r))
    | 1 -> I64 (Array.init count (fun _ -> int_from_i64 r))
    | 2 ->
        F32
          (Array.init count (fun _ ->
               let bits = ref 0l in
               for i = 0 to 3 do
                 bits :=
                   Int32.logor !bits (Int32.shift_left (Int32.of_int (u8 r)) (8 * i))
               done;
               Int32.float_of_bits !bits))
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
  let body = String.sub data 0 body_len in
  (* Verify the trailing CRC first: all 8 bytes of the field, which
     [encode] writes as the sign-extended 32-bit checksum. *)
  let crc_rd = Bytesio.Rd.of_string (String.sub data body_len 8) in
  let stored_crc = Bytesio.Rd.i64 crc_rd in
  if Int64.of_int32 (Crc32.of_string body) <> stored_crc then
    raise (Corrupt "CRC mismatch");
  let r = Bytesio.Rd.of_string body in
  (try
     if Bytesio.Rd.raw r (String.length magic) <> magic then
       raise (Corrupt "bad magic")
   with Bytesio.Rd.Underrun -> raise (Corrupt "truncated header"));
  try
    let app = Bytesio.Rd.str r in
    let iteration = Bytesio.Rd.u32 r in
    let n = Bytesio.Rd.u32 r in
    if n > 1_000_000 then raise (Corrupt "absurd section count");
    let sections = List.init n (fun _ -> decode_section r) in
    if Bytesio.Rd.remaining r <> 0 then raise (Corrupt "trailing bytes");
    { app; iteration; sections }
  with Bytesio.Rd.Underrun -> raise (Corrupt "truncated body")

(* ------------------------------------------------------------------ *)
(* Scatter/gather between full arrays and pruned payloads              *)
(* ------------------------------------------------------------------ *)

(* Gather the critical elements of a full scalar buffer into a packed
   payload. *)
let gather_f64 ~(data : float array) ~spe regions =
  let packed = Array.make (Regions.cardinal regions * spe) 0. in
  let pos = ref 0 in
  Regions.iter_elements regions (fun e ->
      for k = 0 to spe - 1 do
        packed.(!pos) <- data.((e * spe) + k);
        incr pos
      done);
  packed

let gather_i64 ~(data : int array) ~spe regions =
  let packed = Array.make (Regions.cardinal regions * spe) 0 in
  let pos = ref 0 in
  Regions.iter_elements regions (fun e ->
      for k = 0 to spe - 1 do
        packed.(!pos) <- data.((e * spe) + k);
        incr pos
      done);
  packed

(* Expand a section into a full scalar buffer; uncovered (uncritical)
   slots receive [poison] — on a real restart they hold whatever garbage
   survived the failure, and poisoning proves they are never read. *)
let scatter_f64 s ~poison =
  let total = element_count s * s.spe in
  match (s.payload, s.regions) with
  | F64 packed, None -> Array.copy packed
  | F64 packed, Some regions ->
      let out = Array.make total poison in
      let pos = ref 0 in
      Regions.iter_elements regions (fun e ->
          for k = 0 to s.spe - 1 do
            out.((e * s.spe) + k) <- packed.(!pos);
            incr pos
          done);
      out
  | F32 packed, None -> Array.copy packed
  | F32 packed, Some regions ->
      let out = Array.make total poison in
      let pos = ref 0 in
      Regions.iter_elements regions (fun e ->
          for k = 0 to s.spe - 1 do
            out.((e * s.spe) + k) <- packed.(!pos);
            incr pos
          done);
      out
  | I64 _, _ -> invalid_arg "scatter_f64: integer section"

let scatter_i64 s ~poison =
  let total = element_count s * s.spe in
  match (s.payload, s.regions) with
  | I64 packed, None -> Array.copy packed
  | I64 packed, Some regions ->
      let out = Array.make total poison in
      let pos = ref 0 in
      Regions.iter_elements regions (fun e ->
          for k = 0 to s.spe - 1 do
            out.((e * s.spe) + k) <- packed.(!pos);
            incr pos
          done);
      out
  | (F64 _ | F32 _), _ -> invalid_arg "scatter_i64: float section"

(* ------------------------------------------------------------------ *)
(* Sizes and the sidecar auxiliary file                                *)
(* ------------------------------------------------------------------ *)

(* Paper-style accounting: payload bytes of one section (8 bytes per
   double/int scalar, 4 per single), excluding headers. *)
let payload_bytes s =
  let width = match s.payload with F32 _ -> 4 | F64 _ | I64 _ -> 8 in
  width * payload_length s.payload

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
