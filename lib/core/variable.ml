(* Checkpoint variable views.

   A variable is "a memory location paired with an associated symbolic
   name" (paper §III-A); here it is a span view over live kernel state:
   [read]/[write] copy a range of elements to and from a packed,
   element-major scalar array.  It is generic in the scalar type, so the
   same view works in float mode (checkpoint writing) and AD mode
   (lifting elements onto the tape).

   A variable has [elements] logical elements, each made of [spe]
   scalars ([spe] = 2 for FT's dcomplex cells); criticality is judged per
   logical element, exactly how the paper counts Table II. *)

type 'a t = {
  name : string;
  shape : Scvad_nd.Shape.t;
  spe : int;
  fill : 'a; (* what a fresh buffer holds before a read overwrites it *)
  read : int -> int -> 'a array -> int -> unit; (* lo hi dst off *)
  write : int -> int -> 'a array -> int -> unit; (* lo hi src off *)
  doc : string; (* why the variable must be checkpointed (Table I) *)
}

let elements v = Scvad_nd.Shape.size v.shape
let scalars v = elements v * v.spe

(* Every constructed view carries a sanitizer identity and reports each
   write as one span of scalar slots, [lo * spe, hi * spe).  The record
   is a domain-local read and a return outside sanitized pool shards, so
   restores and lifts stay cheap in normal runs (DESIGN.md §17). *)
let observed_write ~spe write =
  let id = Scvad_sanitize.Sanitize.fresh_id () in
  fun lo hi src off ->
    write lo hi src off;
    Scvad_sanitize.Sanitize.record ~obj:id ~lo:(lo * spe) ~hi:(hi * spe)
      ~tag:"variable.write"

let observed_int_set set =
  let id = Scvad_sanitize.Sanitize.fresh_id () in
  fun e x ->
    set e x;
    Scvad_sanitize.Sanitize.record ~obj:id ~lo:e ~hi:(e + 1)
      ~tag:"variable.int_set"

(* Paper-style storage cost of the full variable: 8 bytes per scalar. *)
let payload_bytes v = 8 * scalars v

(* Flat array of scalars, one element per scalar: spans are blits. *)
let of_array ~name ?(doc = "") shape (data : 'a array) =
  if Array.length data <> Scvad_nd.Shape.size shape then
    invalid_arg "Variable.of_array: array length does not match shape";
  {
    name;
    shape;
    spe = 1;
    fill = data.(0);
    read = (fun lo hi dst off -> Array.blit data lo dst off (hi - lo));
    write =
      observed_write ~spe:1 (fun lo hi src off ->
          Array.blit src off data lo (hi - lo));
    doc;
  }

(* General span view (dcomplex cells, record fields). *)
let make ~name ?(doc = "") ~shape ~spe ~fill ~read ~write () =
  if spe <= 0 then invalid_arg "Variable.make: spe must be positive";
  { name; shape; spe; fill; read; write = observed_write ~spe write; doc }

(* One element's [spe] scalars, and back: for callers that touch single
   elements (bit flips, perturbations, probes). *)
let read_element v e =
  let cell = Array.make v.spe v.fill in
  v.read e (e + 1) cell 0;
  cell

let write_element v e cell = v.write e (e + 1) cell 0

(* Boundary snapshot/restore: every scalar of the variable, element-major
   ([spe] slots per element), in one span each way.  This is the
   in-memory checkpoint the falsifier and the segmented tape's replay
   both rely on: restoring the snapshot and re-running from the boundary
   must reproduce the continuation (the checkpointing premise itself). *)
let snapshot v =
  let dst = Array.make (scalars v) v.fill in
  v.read 0 (elements v) dst 0;
  dst

let restore v snap =
  if Array.length snap <> scalars v then
    invalid_arg "Variable.restore: snapshot length does not match variable";
  v.write 0 (elements v) snap 0

(* Lift every scalar and return the lifted values (element-major, [spe]
   slots per element), lifting in that order.  The returned snapshot is
   essential: the run that follows may overwrite the variable, but
   criticality is a property of the values that were {e checkpointed},
   i.e. the ones lifted here. *)
let lift_capture v f =
  let lifted = snapshot v in
  for i = 0 to Array.length lifted - 1 do
    lifted.(i) <- f lifted.(i)
  done;
  v.write 0 (elements v) lifted 0;
  lifted

(* Mask and per-element |derivative| magnitude in one scan of the
   snapshot (reverse mode reads both from the same adjoints; scanning
   once halves the gradient lookups).  An element's magnitude is the max
   over its scalar slots; criticality is magnitude <> 0, which agrees
   with judging each slot's derivative against 0 (NaN stays critical:
   NaN <> 0.). *)
let mask_and_magnitudes_of_snapshot v snapshot magnitude_of =
  let n = elements v in
  let mask = Array.make n false in
  let magnitudes = Array.make n 0. in
  for e = 0 to n - 1 do
    let m = ref 0. in
    for k = 0 to v.spe - 1 do
      m := Float.max !m (Float.abs (magnitude_of snapshot.((e * v.spe) + k)))
    done;
    magnitudes.(e) <- !m;
    (* lint: allow float-equality — the paper's exact derivative-is-zero
       criterion; NaN magnitudes stay critical because NaN <> 0. *)
    mask.(e) <- !m <> 0.
  done;
  (mask, magnitudes)

(* ------------------------------------------------------------------ *)
(* Integer variables                                                   *)
(* ------------------------------------------------------------------ *)

(* AD does not apply to integers; the paper argues their criticality by
   inspection ("its impact is obvious as the index variable of a
   for-loop").  Each integer variable carries either that declared
   argument or a request for mechanized taint analysis. *)
type int_criticality =
  | Always_critical of string (* justification, e.g. "main loop index" *)
  | By_taint (* resolved by the app's integer-dependence analysis *)

type int_t = {
  iname : string;
  ishape : Scvad_nd.Shape.t;
  iget : int -> int;
  iset : int -> int -> unit;
  icrit : int_criticality;
  idoc : string;
}

let int_elements v = Scvad_nd.Shape.size v.ishape
let int_payload_bytes v = 8 * int_elements v
let int_snapshot v = Array.init (int_elements v) v.iget

let int_restore v snap =
  if Array.length snap <> int_elements v then
    invalid_arg "Variable.int_restore: snapshot length does not match variable";
  Array.iteri v.iset snap

let int_of_ref ~name ?(doc = "") ~crit (r : int ref) =
  {
    iname = name;
    ishape = Scvad_nd.Shape.scalar;
    iget = (fun _ -> !r);
    iset = observed_int_set (fun _ x -> r := x);
    icrit = crit;
    idoc = doc;
  }

let int_of_array ~name ?(doc = "") ~crit shape (data : int array) =
  if Array.length data <> Scvad_nd.Shape.size shape then
    invalid_arg "Variable.int_of_array: array length does not match shape";
  {
    iname = name;
    ishape = shape;
    iget = (fun e -> data.(e));
    iset = observed_int_set (fun e x -> data.(e) <- x);
    icrit = crit;
    idoc = doc;
  }

(* C-like declaration for Table I, e.g. "double u[12][13][13][5]" or
   "dcomplex y[64][64][65]" or "int step". *)
let declaration_of ~ctype ~name ~shape =
  let dims = Scvad_nd.Shape.dims shape in
  if Array.length dims = 1 && dims.(0) = 1 then Printf.sprintf "%s %s" ctype name
  else
    Printf.sprintf "%s %s%s" ctype name
      (String.concat ""
         (List.map (Printf.sprintf "[%d]") (Array.to_list dims)))

let declaration v =
  declaration_of
    ~ctype:(if v.spe = 2 then "dcomplex" else "double")
    ~name:v.name ~shape:v.shape

let int_declaration v =
  declaration_of ~ctype:"int" ~name:v.iname ~shape:v.ishape
