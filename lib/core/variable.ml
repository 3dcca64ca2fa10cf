(* Checkpoint variable views.

   A variable is "a memory location paired with an associated symbolic
   name" (paper §III-A); here it is a span view over live kernel state:
   [read]/[write] copy a range of elements to and from a packed,
   element-major scalar array.  It is generic in the scalar type, so the
   same view works in float mode (checkpoint writing) and AD mode
   (lifting elements onto the tape), and integer variables are [int]
   views of the same kind.

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

(* An integer variable is an [int] view over its kernel state, paired
   with how its criticality is decided. *)
type int_t = { view : int t; crit : int_criticality }

(* One mutable int (a loop index, a counter). *)
let int_scalar ~name ~doc ~crit ~get ~set =
  {
    view =
      make ~name ~doc ~shape:Scvad_nd.Shape.scalar ~spe:1 ~fill:0
        ~read:(fun lo hi dst off -> if lo < hi then dst.(off) <- get ())
        ~write:(fun lo hi src off -> if lo < hi then set src.(off))
        ();
    crit;
  }

let int_of_array ~name ?doc ~crit shape (data : int array) =
  { view = of_array ~name ?doc shape data; crit }

(* C-like declaration for Table I, e.g. "double u[12][13][13][5]" or
   "dcomplex y[64][64][65]" or "int step". *)
let declaration ?ctype v =
  let ctype =
    match ctype with
    | Some c -> c
    | None -> if v.spe = 2 then "dcomplex" else "double"
  in
  let dims = Scvad_nd.Shape.dims v.shape in
  if Array.length dims = 1 && dims.(0) = 1 then Printf.sprintf "%s %s" ctype v.name
  else
    Printf.sprintf "%s %s%s" ctype v.name
      (String.concat ""
         (List.map (Printf.sprintf "[%d]") (Array.to_list dims)))
