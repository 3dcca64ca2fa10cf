(* Tests for the checkpoint library: CRC, region codec, file format,
   store, failure injection. *)

open Scvad_checkpoint

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc_known_vectors () =
  Alcotest.(check int32) "check value" 0xCBF43926l
    (Crc32.of_string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.of_string "");
  Alcotest.(check int32) "single byte" 0xD202EF8Dl (Crc32.of_string "\x00")

let test_crc_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Crc32.of_string s in
  let b = Bytes.of_string s in
  let half = Bytes.length b / 2 in
  let inc = Crc32.update 0l b 0 half in
  let inc = Crc32.update inc b half (Bytes.length b - half) in
  Alcotest.(check int32) "incremental = whole" whole inc

(* The byte-at-a-time definition of CRC-32, kept here as the reference
   for the table-driven [Crc32.update]. *)
let reference_crc crc bytes off len =
  let c = ref (Int32.to_int (Int32.lognot crc) land 0xFFFF_FFFF) in
  for i = off to off + len - 1 do
    c := !c lxor Char.code (Bytes.get bytes i);
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  Int32.lognot (Int32.of_int !c)

let test_crc_matches_reference () =
  let rng = Random.State.make [| 32 |] in
  let buf = Bytes.init 1100 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let lengths = List.init 65 Fun.id @ [ 1000 ] in
  List.iter
    (fun len ->
      for off = 0 to 7 do
        let expect = reference_crc 0l buf off len in
        let got = Crc32.update 0l buf off len in
        if got <> expect then
          Alcotest.failf "len %d off %d: %08lx, reference %08lx" len off got
            expect;
        for split = 0 to len do
          let inc = Crc32.update 0l buf off split in
          let inc = Crc32.update inc buf (off + split) (len - split) in
          if inc <> expect then
            Alcotest.failf "len %d off %d split %d: %08lx, reference %08lx"
              len off split inc expect
        done
      done)
    lengths

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)
(* ------------------------------------------------------------------ *)

let test_regions_of_mask_basic () =
  let r = Regions.of_mask [| true; true; false; true; false; false; true |] in
  Alcotest.(check string) "spans" "0-2,3-4,6-7" (Regions.to_string r);
  Alcotest.(check int) "cardinal" 4 (Regions.cardinal r);
  Alcotest.(check int) "regions" 3 (Regions.count_regions r);
  Alcotest.(check bool) "well formed" true (Regions.is_well_formed r);
  Alcotest.(check bool) "mem 3" true (Regions.mem r 3);
  Alcotest.(check bool) "mem 2" false (Regions.mem r 2)

let test_regions_empty_and_full () =
  let none = Regions.of_mask (Array.make 5 false) in
  Alcotest.(check int) "empty cardinal" 0 (Regions.cardinal none);
  let all = Regions.of_mask (Array.make 5 true) in
  Alcotest.(check string) "single span" "0-5" (Regions.to_string all);
  Alcotest.(check int) "aux bytes" 16 (Regions.aux_bytes all);
  Alcotest.(check int) "aux bytes empty" 0 (Regions.aux_bytes none)

let test_regions_complement () =
  let r = Regions.of_mask [| false; true; true; false; false; true |] in
  let c = Regions.complement ~total:6 r in
  Alcotest.(check string) "complement" "0-1,3-5" (Regions.to_string c);
  Alcotest.(check int) "partition" 6 (Regions.cardinal r + Regions.cardinal c)

let test_regions_iter_order () =
  let r = Regions.of_mask [| true; false; true; true |] in
  let seen = ref [] in
  Regions.iter_elements r (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "visits critical in order" [ 0; 2; 3 ]
    (List.rev !seen)

let test_regions_ill_formed () =
  let bad = [ { Regions.start = 0; stop = 2 }; { Regions.start = 2; stop = 4 } ] in
  Alcotest.(check bool) "adjacent spans rejected" false
    (Regions.is_well_formed bad);
  let bad2 = [ { Regions.start = 3; stop = 3 } ] in
  Alcotest.(check bool) "empty span rejected" false
    (Regions.is_well_formed bad2);
  let bad3 = [ { Regions.start = 4; stop = 6 }; { Regions.start = 0; stop = 1 } ] in
  Alcotest.(check bool) "unsorted rejected" false (Regions.is_well_formed bad3)

let mask_arb =
  QCheck.(
    make
      ~print:(fun m ->
        String.concat ""
          (List.map (fun b -> if b then "#" else ".") (Array.to_list m)))
      Gen.(map Array.of_list (list_size (int_range 0 200) bool)))

let prop_regions_roundtrip =
  QCheck.Test.make ~count:500 ~name:"regions mask roundtrip" mask_arb
    (fun mask ->
      let r = Regions.of_mask mask in
      Regions.is_well_formed r
      && Regions.to_mask ~total:(Array.length mask) r = mask)

let prop_regions_complement_partitions =
  QCheck.Test.make ~count:500 ~name:"complement partitions the index space"
    mask_arb (fun mask ->
      let total = Array.length mask in
      let r = Regions.of_mask mask in
      let c = Regions.complement ~total r in
      Regions.is_well_formed c
      && Regions.cardinal r + Regions.cardinal c = total
      && Array.for_all (fun b -> b)
           (Array.init total (fun i -> Regions.mem r i <> Regions.mem c i)))

(* ------------------------------------------------------------------ *)
(* Format                                                              *)
(* ------------------------------------------------------------------ *)

let f64_section ?regions ~name ~dims ~spe data =
  { Ckpt_format.name; dims; spe; regions; payload = Ckpt_format.F64 data }

(* A full scalar buffer ([spe] slots per element) packed by [regions],
   and a section expanded back into one. *)
let gather_f64 ~data ~spe regions =
  Ckpt_format.gather ~create:Array.create_float ~spe regions
    (fun lo hi dst off -> Array.blit data (lo * spe) dst off ((hi - lo) * spe))

let scatter_f64 s ~poison =
  let spe = s.Ckpt_format.spe in
  let out = Array.create_float (Ckpt_format.element_count s * spe) in
  Ckpt_format.scatter_floats ~who:"test" s ~poison (fun lo hi src off ->
      Array.blit src off out (lo * spe) ((hi - lo) * spe));
  out

let test_format_roundtrip_full () =
  let data = Array.init 60 (fun i -> float i *. 1.5) in
  let ints = Array.init 7 (fun i -> (i * i) - 3) in
  let file =
    {
      Ckpt_format.app = "bt";
      iteration = 42;
      sections =
        [ f64_section ~name:"u" ~dims:[| 3; 4; 5 |] ~spe:1 data;
          {
            Ckpt_format.name = "key_array";
            dims = [| 7 |];
            spe = 1;
            regions = None;
            payload = Ckpt_format.I64 ints;
          } ];
    }
  in
  let file' = Ckpt_format.decode (Ckpt_format.encode file) in
  Alcotest.(check string) "app" "bt" file'.Ckpt_format.app;
  Alcotest.(check int) "iteration" 42 file'.Ckpt_format.iteration;
  match file'.Ckpt_format.sections with
  | [ s1; s2 ] ->
      Alcotest.(check string) "name" "u" s1.Ckpt_format.name;
      (match s1.Ckpt_format.payload with
      | Ckpt_format.F64 d -> Alcotest.(check bool) "floats" true (d = data)
      | _ -> Alcotest.fail "wrong payload kind");
      (match s2.Ckpt_format.payload with
      | Ckpt_format.I64 d -> Alcotest.(check bool) "ints" true (d = ints)
      | _ -> Alcotest.fail "wrong payload kind")
  | _ -> Alcotest.fail "wrong section count"

let test_format_roundtrip_pruned () =
  let total = 10 in
  let full = Array.init total (fun i -> float i) in
  let mask = Array.init total (fun i -> i <> 3 && i <> 7 && i <> 8) in
  let regions = Regions.of_mask mask in
  let packed = gather_f64 ~data:full ~spe:1 regions in
  Alcotest.(check int) "packed size" 7 (Array.length packed);
  let s = f64_section ~regions ~name:"x" ~dims:[| total |] ~spe:1 packed in
  let file = { Ckpt_format.app = "cg"; iteration = 1; sections = [ s ] } in
  let file' = Ckpt_format.decode (Ckpt_format.encode file) in
  let s' = List.hd file'.Ckpt_format.sections in
  let restored = scatter_f64 s' ~poison:Float.nan in
  Array.iteri
    (fun i v ->
      if mask.(i) then Alcotest.(check (float 0.)) "critical restored" full.(i) v
      else Alcotest.(check bool) "uncritical poisoned" true (Float.is_nan v))
    restored

let test_format_spe2 () =
  (* dcomplex-style: 2 scalars per element. *)
  let elements = 6 in
  let full = Array.init (elements * 2) (fun i -> float i) in
  let mask = [| true; true; false; true; false; true |] in
  let regions = Regions.of_mask mask in
  let packed = gather_f64 ~data:full ~spe:2 regions in
  Alcotest.(check int) "packed scalars" 8 (Array.length packed);
  let s = f64_section ~regions ~name:"y" ~dims:[| elements |] ~spe:2 packed in
  let restored = scatter_f64 s ~poison:(-1.) in
  Alcotest.(check (float 0.)) "elem 1 re" 2. restored.(2);
  Alcotest.(check (float 0.)) "elem 1 im" 3. restored.(3);
  Alcotest.(check (float 0.)) "elem 2 re poisoned" (-1.) restored.(4);
  Alcotest.(check (float 0.)) "elem 3 re" 6. restored.(6)

let test_format_crc_detects_corruption () =
  let data = Array.init 16 (fun i -> float i) in
  let file =
    {
      Ckpt_format.app = "mg";
      iteration = 3;
      sections = [ f64_section ~name:"u" ~dims:[| 16 |] ~spe:1 data ];
    }
  in
  let s = Bytes.of_string (Ckpt_format.encode file) in
  Bytes.set s 40 (Char.chr (Char.code (Bytes.get s 40) lxor 0x01));
  (match Ckpt_format.decode (Bytes.to_string s) with
  | exception Ckpt_format.Corrupt _ -> ()
  | _ -> Alcotest.fail "corruption not detected");
  match Ckpt_format.decode "short" with
  | exception Ckpt_format.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncation not detected"

(* Every bit of the 8-byte CRC field is checked, including the upper
   four bytes that carry the sign extension of the 32-bit checksum. *)
let test_format_crc_field_every_bit () =
  let file =
    {
      Ckpt_format.app = "mg";
      iteration = 3;
      sections =
        [ f64_section ~name:"u" ~dims:[| 4 |] ~spe:1 [| 1.; 2.; 3.; 4. |] ];
    }
  in
  let encoded = Ckpt_format.encode file in
  let field = String.length encoded - 8 in
  for bit = 0 to 63 do
    let s = Bytes.of_string encoded in
    let at = field + (bit / 8) in
    Bytes.set s at (Char.chr (Char.code (Bytes.get s at) lxor (1 lsl (bit mod 8))));
    match Ckpt_format.decode (Bytes.to_string s) with
    | exception Ckpt_format.Corrupt _ -> ()
    | _ -> Alcotest.failf "flip of CRC field bit %d not detected" bit
  done

let test_format_payload_mismatch_rejected () =
  let s = f64_section ~name:"u" ~dims:[| 4 |] ~spe:1 [| 1.; 2. |] in
  match
    Ckpt_format.encode { Ckpt_format.app = "x"; iteration = 0; sections = [ s ] }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch not rejected"

(* A region must end inside its section's elements: encode refuses one
   that does not, and decode refuses a CRC-valid file that carries one
   (here a scalar whose region [0, 3) would restore a third value). *)
let test_format_region_out_of_bounds () =
  let regions = [ { Regions.start = 0; stop = 3 } ] in
  let file dims =
    {
      Ckpt_format.app = "r";
      iteration = 0;
      sections = [ f64_section ~regions ~name:"s" ~dims ~spe:1 [| 1.; 2.; 3. |] ];
    }
  in
  (match Ckpt_format.encode (file [||]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode accepted a region past the section");
  (* Encode with one dimension of 3, then rewrite it to 1 and reseal. *)
  let body =
    let s = Ckpt_format.encode (file [| 3 |]) in
    Bytes.of_string (String.sub s 0 (String.length s - 8))
  in
  let dim_at =
    String.length Ckpt_format.magic + 4 + 1 + 4 + 4 + 4 + 1 + 1 + 4
  in
  Alcotest.(check int) "dimension found" 3
    (Int32.to_int (Bytes.get_int32_le body dim_at));
  Bytes.set_int32_le body dim_at 1l;
  let crc = Bytes.create 8 in
  Bytes.set_int64_le crc 0 (Int64.of_int32 (Crc32.of_bytes body));
  match Ckpt_format.decode (Bytes.to_string body ^ Bytes.to_string crc) with
  | exception Ckpt_format.Corrupt "region out of bounds" -> ()
  | exception e -> Alcotest.failf "decode raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "decode accepted a region past the section"

(* Every policy's restore checks each section it reads against its
   variable, and names itself when it refuses one.  Each row is a file
   for a 4-element float variable [x] and a 4-element integer [k]. *)
let test_restore_validation () =
  let open Scvad_core in
  let shape = Scvad_nd.Shape.create [ 4 ] in
  let x ~dims ~spe =
    f64_section ~name:"x" ~dims ~spe
      (Array.init (Array.fold_left ( * ) spe dims) float)
  in
  let k n =
    {
      Ckpt_format.name = "k";
      dims = [| n |];
      spe = 1;
      regions = None;
      payload = Ckpt_format.I64 (Array.init n (fun i -> 10 + i));
    }
  in
  let rows =
    [ ("missing section", [ k 4 ]);
      ("element-count mismatch", [ x ~dims:[| 3 |] ~spe:1; k 4 ]);
      ("spe mismatch", [ x ~dims:[| 4 |] ~spe:2; k 4 ]);
      ("same scalars, other shape", [ x ~dims:[| 2 |] ~spe:2; k 4 ]);
      ("short int section", [ x ~dims:[| 4 |] ~spe:1; k 2 ]);
      ( "int payload for float",
        [ { (k 4) with Ckpt_format.name = "x" }; k 4 ] );
      ( "float payload for int",
        [ x ~dims:[| 4 |] ~spe:1; { (x ~dims:[| 4 |] ~spe:1) with name = "k" } ] ) ]
  in
  let policies =
    [ ("Pruned.restore", fun file ~float_vars ~int_vars ->
          Pruned.restore file ~float_vars ~int_vars);
      ("Mixed.restore", fun file ~float_vars ~int_vars ->
          Mixed.restore file ~float_vars ~int_vars);
      ("Incremental.restore", fun file ~float_vars ~int_vars ->
          Incremental.restore ~files:[ file ] ~float_vars ~int_vars ()) ]
  in
  let failures =
    List.concat_map
      (fun (policy, restore) ->
        List.filter_map
          (fun (row, sections) ->
            let file = { Ckpt_format.app = "t"; iteration = 1; sections } in
            let float_vars =
              [ Variable.of_array ~name:"x" shape (Array.make 4 (-1.)) ]
            and int_vars =
              [ Variable.int_of_array ~name:"k"
                  ~crit:(Variable.Always_critical "test") shape
                  (Array.make 4 (-1)) ]
            in
            match restore file ~float_vars ~int_vars with
            | exception Invalid_argument msg
              when Astring.String.is_prefix ~affix:policy msg ->
                None
            | exception e ->
                Some
                  (Printf.sprintf "%s, %s: raised %s" policy row
                     (Printexc.to_string e))
            | _ -> Some (Printf.sprintf "%s, %s: restored" policy row))
          rows)
      policies
  in
  Alcotest.(check (list string)) "every row refused by its policy" [] failures

let test_format_aux_file () =
  let mask = [| true; true; false; true |] in
  let regions = Regions.of_mask mask in
  let packed = gather_f64 ~data:[| 0.; 1.; 2.; 3. |] ~spe:1 regions in
  let s = f64_section ~regions ~name:"x" ~dims:[| 4 |] ~spe:1 packed in
  let full = f64_section ~name:"w" ~dims:[| 2 |] ~spe:1 [| 5.; 6. |] in
  let file =
    { Ckpt_format.app = "demo"; iteration = 0; sections = [ s; full ] }
  in
  Alcotest.(check string) "aux sidecar" "x 0-2,3-4\n"
    (Ckpt_format.aux_file_string file);
  Alcotest.(check int) "aux bytes" 32 (Ckpt_format.aux_bytes s);
  Alcotest.(check int) "aux bytes full" 0 (Ckpt_format.aux_bytes full);
  Alcotest.(check int) "payload bytes" 24 (Ckpt_format.payload_bytes s)

(* A small file with every section kind the format has: a full F64
   section (with signed zero, infinities and NaN), a pruned F64 section
   of two scalars per element, an F32 section and an I64 section. *)
let fixed_file () =
  let regions = Regions.of_mask [| true; false; true; true; false; true |] in
  {
    Ckpt_format.app = "fixed";
    iteration = 77;
    sections =
      [ f64_section ~name:"full" ~dims:[| 2; 3 |] ~spe:1
          [| 1.5; -0.; Float.infinity; Float.neg_infinity; Float.nan; 1e-310 |];
        f64_section ~regions ~name:"pruned" ~dims:[| 6 |] ~spe:2
          (Array.init 8 (fun i -> (float i *. 0.25) -. 1.));
        {
          Ckpt_format.name = "single";
          dims = [| 4 |];
          spe = 1;
          regions = None;
          payload = Ckpt_format.F32 [| 0.1; -2.5; 3e38; 1e-40 |];
        };
        {
          Ckpt_format.name = "ints";
          dims = [| 5 |];
          spe = 1;
          regions = None;
          payload = Ckpt_format.I64 [| 0; -1; 42; max_int; min_int |];
        } ];
  }

let md5 s = Digest.to_hex (Digest.string s)

(* Pinned digests of encoded files: the byte layout is the on-disk
   format, so any change to it must show up here. *)
let test_format_golden_fixed () =
  Alcotest.(check string) "fixed file" "8e8cd22d0c51fc9d30e113523ca3155d"
    (md5 (Ckpt_format.encode (fixed_file ())))

let lu_snapshots () =
  let (module A : Scvad_core.App.S) = (module Scvad_npb.Lu.App) in
  let report = Test_npb.report_of (module A) in
  let module I = A.Make (Scvad_ad.Float_scalar) in
  let st = I.create () in
  I.run st ~from:0 ~until:1;
  let snapshot report =
    Scvad_core.Pruned.snapshot ?report ~app:A.name ~iteration:1
      ~float_vars:(I.float_vars st) ~int_vars:(I.int_vars st) ()
  in
  (snapshot None, snapshot (Some report))

let test_format_golden_lu () =
  let full, pruned = lu_snapshots () in
  Alcotest.(check bool) "the pruned snapshot prunes" true
    (List.exists
       (fun s -> s.Ckpt_format.regions <> None)
       pruned.Ckpt_format.sections);
  Alcotest.(check string) "lu full" "c5003a5216cc16700f381c4eb24b989a"
    (md5 (Ckpt_format.encode full));
  Alcotest.(check string) "lu pruned" "a04c227f60658c486d6b9cb0143416d8"
    (md5 (Ckpt_format.encode pruned))

(* The other policies' files, pinned the same way: a mixed-precision
   snapshot at iteration 1 (impact from iteration 0, threshold 1e-6),
   then incremental-only and combined snapshots at iterations 1-3.  FT
   covers two scalars per element. *)
let policy_digests (module A : Scvad_core.App.S) =
  let open Scvad_core in
  let impact = Analyzer.analyze_impact ~at_iter:0 (module A) in
  let plans = Mixed.plans_of_report ~threshold:1e-6 impact in
  let report = Test_npb.report_of (module A) in
  let module I = A.Make (Scvad_ad.Float_scalar) in
  let st = I.create () in
  I.run st ~from:0 ~until:1;
  let digest file = md5 (Ckpt_format.encode file) in
  let mixed =
    digest
      (Mixed.snapshot ~plans ~app:A.name ~iteration:1
         ~float_vars:(I.float_vars st) ~int_vars:(I.int_vars st) ())
  in
  let only = Incremental.create_tracker ()
  and combined = Incremental.create_tracker () in
  let incremental =
    List.concat_map
      (fun iteration ->
        if iteration > 1 then I.run st ~from:(iteration - 1) ~until:iteration;
        List.map
          (fun (tracker, mode) ->
            digest
              (Incremental.snapshot tracker ~mode ~app:A.name ~iteration
                 ~float_vars:(I.float_vars st) ~int_vars:(I.int_vars st) ()))
          [ (only, Incremental.Incremental_only);
            (combined, Incremental.Combined_with report) ])
      [ 1; 2; 3 ]
  in
  mixed :: incremental

let test_format_golden_policies () =
  let check (module A : Scvad_core.App.S) expected =
    Alcotest.(check (list string))
      (A.name ^ ": mixed, then incremental-only and combined at 1-3")
      expected
      (policy_digests (module A))
  in
  check (module Scvad_npb.Lu.App)
    [ "d00ed448566f148d66327d6394b190af"; "1e363e29eee522125a170bf9782ec7d9";
      "3f549b5269062e68df58eed2bfa34012"; "cb640781dce9833b5100e7a19e95e24f";
      "cb640781dce9833b5100e7a19e95e24f"; "967a3933923e6f8809abf37a4adda06c";
      "967a3933923e6f8809abf37a4adda06c" ];
  check (module Scvad_npb.Ft.App)
    [ "27495dc5786e0bb773fb4292ba8103c5"; "e318b7b537aff90db9d1f854a683c14c";
      "e3ec0b19f74490434140d92652ae966c"; "27c8b089472b7b3624d0b7fe7e5b14ce";
      "27c8b089472b7b3624d0b7fe7e5b14ce"; "0f7b12123e541c4c819e89280ebd0f8d";
      "0f7b12123e541c4c819e89280ebd0f8d" ]

(* Every proper prefix of a body, sealed with a valid CRC, must be
   rejected with the format's own exception: a truncated section never
   surfaces as an index or argument error. *)
let test_format_truncated_bodies () =
  let encoded = Ckpt_format.encode (fixed_file ()) in
  let body_len = String.length encoded - 8 in
  for len = 0 to body_len - 1 do
    let body = Bytes.of_string (String.sub encoded 0 len) in
    let tail = Bytes.create 8 in
    Bytes.set_int64_le tail 0 (Int64.of_int32 (Crc32.of_bytes body));
    match Ckpt_format.decode (Bytes.to_string body ^ Bytes.to_string tail) with
    | exception Ckpt_format.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "prefix of %d bytes raised %s" len (Printexc.to_string e)
    | _ -> Alcotest.failf "prefix of %d bytes decoded" len
  done

(* A u32 field past 2^32 - 1 must be rejected, not truncated to its
   low 32 bits (an iteration of 2^32 used to load back as 0). *)
let test_format_u32_overflow_rejected () =
  let big = 1 lsl 32 in
  let rejects what file =
    match Ckpt_format.encode file with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s of 2^32 was encoded" what
  in
  let file = fixed_file () in
  rejects "iteration" { file with Ckpt_format.iteration = big };
  (* empty sections, so only the u32 field itself can be at fault *)
  let empty ~dims ~spe =
    {
      file with
      Ckpt_format.sections =
        [ f64_section ~name:"e" ~dims ~spe [||] ];
    }
  in
  rejects "dim" (empty ~dims:[| big; 0 |] ~spe:1);
  rejects "spe" (empty ~dims:[| 0 |] ~spe:big);
  let top = { file with Ckpt_format.iteration = (1 lsl 32) - 1 } in
  Alcotest.(check int) "2^32 - 1 round-trips" ((1 lsl 32) - 1)
    (Ckpt_format.decode (Ckpt_format.encode top)).Ckpt_format.iteration

let check_encoded_size what file =
  Alcotest.(check int) what
    (String.length (Ckpt_format.encode file))
    (Ckpt_format.encoded_size file)

let test_format_encoded_size () =
  check_encoded_size "fixed file" (fixed_file ());
  List.iter
    (fun (module A : Scvad_core.App.S) ->
      let report = Test_npb.report_of (module A) in
      let module I = A.Make (Scvad_ad.Float_scalar) in
      let st = I.create () in
      List.iter
        (fun (kind, report) ->
          check_encoded_size (A.name ^ " " ^ kind)
            (Scvad_core.Pruned.snapshot ?report ~app:A.name ~iteration:0
               ~float_vars:(I.float_vars st) ~int_vars:(I.int_vars st) ()))
        [ ("full", None); ("pruned", Some report) ])
    Scvad_npb.Suite.all

let payload_gen =
  QCheck.Gen.(
    let* elements = int_range 1 40 in
    let* spe = int_range 1 3 in
    let* mask = array_size (return elements) bool in
    let* values =
      array_size (return (elements * spe)) (float_bound_inclusive 1e6)
    in
    return (elements, spe, mask, values))

let prop_format_pruned_roundtrip =
  QCheck.Test.make ~count:300 ~name:"pruned section roundtrip"
    (QCheck.make payload_gen) (fun (elements, spe, mask, values) ->
      let regions = Regions.of_mask mask in
      let packed = gather_f64 ~data:values ~spe regions in
      let s =
        {
          Ckpt_format.name = "v";
          dims = [| elements |];
          spe;
          regions = Some regions;
          payload = Ckpt_format.F64 packed;
        }
      in
      let file = { Ckpt_format.app = "p"; iteration = 9; sections = [ s ] } in
      let file' = Ckpt_format.decode (Ckpt_format.encode file) in
      let s' = List.hd file'.Ckpt_format.sections in
      let restored = scatter_f64 s' ~poison:Float.nan in
      Array.for_all
        (fun e ->
          Array.for_all
            (fun k ->
              let i = (e * spe) + k in
              if mask.(e) then restored.(i) = values.(i)
              else Float.is_nan restored.(i))
            (Array.init spe (fun k -> k)))
        (Array.init elements (fun e -> e)))

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "scvad_test_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let trivial_file iteration =
  {
    Ckpt_format.app = "demo";
    iteration;
    sections =
      [ f64_section ~name:"v" ~dims:[| 3 |] ~spe:1
          [| float iteration; 1.; 2. |] ];
  }

let test_store_save_load_latest () =
  with_tmp_dir (fun dir ->
      let store = Store.create dir in
      Alcotest.(check (option reject)) "empty store" None
        (Option.map ignore (Store.latest store));
      ignore (Store.save store (trivial_file 5));
      ignore (Store.save store (trivial_file 12));
      Alcotest.(check (list int)) "iterations" [ 5; 12 ]
        (Store.list_iterations store);
      (match Store.latest store with
      | Some f -> Alcotest.(check int) "latest" 12 f.Ckpt_format.iteration
      | None -> Alcotest.fail "latest missing");
      (match Store.load store 5 with
      | Ok f5 -> Alcotest.(check int) "load 5" 5 f5.Ckpt_format.iteration
      | Error e -> Alcotest.failf "load 5: %s" (Store.describe_error e));
      Alcotest.(check bool) "disk bytes positive" true
        (Store.disk_bytes store 5 > 0))

let test_store_rotation () =
  with_tmp_dir (fun dir ->
      let store =
        Store.create
          ~retention:{ Store.keep_last = Some 2; keep_every = None }
          dir
      in
      List.iter (fun i -> ignore (Store.save store (trivial_file i))) [ 1; 2; 3; 4 ];
      Alcotest.(check (list int)) "rotated" [ 3; 4 ]
        (Store.list_iterations store))

let test_store_no_tmp_left () =
  with_tmp_dir (fun dir ->
      let store = Store.create dir in
      ignore (Store.save store (trivial_file 7));
      let leftovers =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun n -> Filename.check_suffix n ".tmp")
      in
      Alcotest.(check (list string)) "no temp files" [] leftovers)

let test_store_sidecar () =
  with_tmp_dir (fun dir ->
      let store = Store.create dir in
      let regions = Regions.of_mask [| true; false; true |] in
      let packed = gather_f64 ~data:[| 1.; 2.; 3. |] ~spe:1 regions in
      let file =
        {
          Ckpt_format.app = "demo";
          iteration = 1;
          sections = [ f64_section ~regions ~name:"v" ~dims:[| 3 |] ~spe:1 packed ];
        }
      in
      let path = Store.save ~sidecar_aux:true store file in
      Alcotest.(check bool) "aux exists" true (Sys.file_exists (path ^ ".aux"));
      Store.wipe store;
      Alcotest.(check (list int)) "wiped" [] (Store.list_iterations store))

(* Save verification compares the landed bytes with the encoded file:
   a flipped bit and a torn write both fail every attempt, each with
   its own reason. *)
let test_store_verification_rejects_bad_landings () =
  let expect_failure what faults reason =
    with_tmp_dir (fun dir ->
        let store = Store.create ~faults dir in
        match Store.save store (trivial_file 1) with
        | exception Store.Write_failed { attempts; reason = r; _ } ->
            Alcotest.(check int) (what ^ ": attempts") 3 attempts;
            Alcotest.(check bool)
              (Printf.sprintf "%s: reason %S" what r)
              true
              (Astring.String.is_prefix ~affix:reason r);
            Alcotest.(check (list int)) (what ^ ": nothing kept") []
              (Store.list_iterations store)
        | _ -> Alcotest.failf "%s: save succeeded" what)
  in
  expect_failure "bit flip"
    (Io_fault.plan ~bit_flip_rate:1. ~seed:3 ())
    "landed bytes differ";
  expect_failure "torn write"
    (Io_fault.plan ~torn_write_rate:1. ~seed:3 ())
    "short write"

let test_failure_helpers () =
  (match Failure.crash_if ~at:3 ~iteration:2 with
  | () -> ()
  | exception _ -> Alcotest.fail "should not crash");
  (match Failure.crash_if ~at:3 ~iteration:3 with
  | exception Failure.Crash { iteration = 3 } -> ()
  | _ -> Alcotest.fail "expected crash");
  Alcotest.(check bool) "nan poison" true
    (Float.is_nan (Failure.poison_value Failure.Nan));
  Alcotest.(check (float 0.)) "garbage poison" 7.5
    (Failure.poison_value (Failure.Garbage 7.5));
  Alcotest.(check int) "int poison" 0 (Failure.int_poison_value Failure.Zero)

let suites =
  [ ( "checkpoint.crc32",
      [ Alcotest.test_case "known vectors" `Quick test_crc_known_vectors;
        Alcotest.test_case "incremental" `Quick test_crc_incremental;
        Alcotest.test_case "matches the byte-wise reference" `Quick
          test_crc_matches_reference ] );
    ( "checkpoint.regions",
      [ Alcotest.test_case "of_mask basics" `Quick test_regions_of_mask_basic;
        Alcotest.test_case "empty and full" `Quick test_regions_empty_and_full;
        Alcotest.test_case "complement" `Quick test_regions_complement;
        Alcotest.test_case "iter order" `Quick test_regions_iter_order;
        Alcotest.test_case "ill-formed rejected" `Quick test_regions_ill_formed;
        QCheck_alcotest.to_alcotest prop_regions_roundtrip;
        QCheck_alcotest.to_alcotest prop_regions_complement_partitions ] );
    ( "checkpoint.format",
      [ Alcotest.test_case "full roundtrip" `Quick test_format_roundtrip_full;
        Alcotest.test_case "pruned roundtrip" `Quick
          test_format_roundtrip_pruned;
        Alcotest.test_case "two scalars per element" `Quick test_format_spe2;
        Alcotest.test_case "CRC detects corruption" `Quick
          test_format_crc_detects_corruption;
        Alcotest.test_case "every CRC field bit checked" `Quick
          test_format_crc_field_every_bit;
        Alcotest.test_case "payload mismatch rejected" `Quick
          test_format_payload_mismatch_rejected;
        Alcotest.test_case "region out of bounds rejected" `Quick
          test_format_region_out_of_bounds;
        Alcotest.test_case "restore validation (every policy)" `Quick
          test_restore_validation;
        Alcotest.test_case "auxiliary file" `Quick test_format_aux_file;
        Alcotest.test_case "golden bytes (fixed file)" `Quick
          test_format_golden_fixed;
        Alcotest.test_case "golden bytes (LU snapshots)" `Quick
          test_format_golden_lu;
        Alcotest.test_case "golden bytes (mixed and incremental)" `Quick
          test_format_golden_policies;
        Alcotest.test_case "truncated bodies are Corrupt" `Quick
          test_format_truncated_bodies;
        Alcotest.test_case "u32 overflow rejected" `Quick
          test_format_u32_overflow_rejected;
        Alcotest.test_case "encoded_size = length of encode" `Quick
          test_format_encoded_size;
        QCheck_alcotest.to_alcotest prop_format_pruned_roundtrip ] );
    ( "checkpoint.store",
      [ Alcotest.test_case "save/load/latest" `Quick test_store_save_load_latest;
        Alcotest.test_case "rotation" `Quick test_store_rotation;
        Alcotest.test_case "atomic (no temp left)" `Quick test_store_no_tmp_left;
        Alcotest.test_case "sidecar + wipe" `Quick test_store_sidecar;
        Alcotest.test_case "verification rejects bad landings" `Quick
          test_store_verification_rejects_bad_landings ] );
    ( "checkpoint.failure",
      [ Alcotest.test_case "helpers" `Quick test_failure_helpers ] ) ]
