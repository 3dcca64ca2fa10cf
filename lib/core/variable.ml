(* Checkpoint variable views.

   A variable is "a memory location paired with an associated symbolic
   name" (paper §III-A); here it is an accessor view over live kernel
   state, generic in the scalar type so the same view works in float mode
   (checkpoint writing) and AD mode (lifting elements onto the tape).

   A variable has [elements] logical elements, each made of [spe]
   scalars ([spe] = 2 for FT's dcomplex cells); criticality is judged per
   logical element, exactly how the paper counts Table II. *)

type 'a t = {
  name : string;
  shape : Scvad_nd.Shape.t;
  spe : int;
  get : int -> int -> 'a; (* element index, scalar slot *)
  set : int -> int -> 'a -> unit;
  doc : string; (* why the variable must be checkpointed (Table I) *)
}

let elements v = Scvad_nd.Shape.size v.shape
let scalars v = elements v * v.spe

(* Every constructed view carries a sanitizer identity and reports its
   stores, scalar-granular: slot [e * spe + k].  The record is a
   domain-local read and a return outside sanitized pool shards, so
   restores and lifts stay cheap in normal runs (DESIGN.md §17). *)
let observed_set ~spe set =
  let id = Scvad_sanitize.Sanitize.fresh_id () in
  fun e k x ->
    set e k x;
    let off = (e * spe) + k in
    Scvad_sanitize.Sanitize.record ~obj:id ~lo:off ~hi:(off + 1)
      ~tag:"variable.set"

let observed_int_set set =
  let id = Scvad_sanitize.Sanitize.fresh_id () in
  fun e x ->
    set e x;
    Scvad_sanitize.Sanitize.record ~obj:id ~lo:e ~hi:(e + 1)
      ~tag:"variable.int_set"

(* Paper-style storage cost of the full variable: 8 bytes per scalar. *)
let payload_bytes v = 8 * scalars v

(* Flat array of scalars, one element per scalar. *)
let of_array ~name ?(doc = "") shape (data : 'a array) =
  if Array.length data <> Scvad_nd.Shape.size shape then
    invalid_arg "Variable.of_array: array length does not match shape";
  {
    name;
    shape;
    spe = 1;
    get = (fun e _ -> data.(e));
    set = observed_set ~spe:1 (fun e _ x -> data.(e) <- x);
    doc;
  }

(* A lone scalar (EP's sx/sy), viewed as one element. *)
let of_ref ~name ?(doc = "") (r : 'a ref) =
  {
    name;
    shape = Scvad_nd.Shape.scalar;
    spe = 1;
    get = (fun _ _ -> !r);
    set = observed_set ~spe:1 (fun _ _ x -> r := x);
    doc;
  }

(* General accessor view (used for dcomplex arrays). *)
let make ~name ?(doc = "") ~shape ~spe ~get ~set () =
  if spe <= 0 then invalid_arg "Variable.make: spe must be positive";
  { name; shape; spe; get; set = observed_set ~spe set; doc }

(* Lift every scalar in place and return the lifted values (element-major,
   [spe] slots per element).  The returned snapshot is essential: the run
   that follows may overwrite the variable, but criticality is a property
   of the values that were {e checkpointed}, i.e. the ones lifted here. *)
let lift_capture v f =
  let n = elements v in
  Array.init (n * v.spe) (fun i ->
      let e = i / v.spe and k = i mod v.spe in
      let x = f (v.get e k) in
      v.set e k x;
      x)

(* Boundary snapshot/restore: every scalar of the variable, element-major
   ([spe] slots per element).  This is the in-memory checkpoint the
   falsifier and the segmented tape's replay both rely on: restoring the
   snapshot and re-running from the boundary must reproduce the
   continuation (the checkpointing premise itself). *)
let snapshot v =
  Array.init (scalars v) (fun k -> v.get (k / v.spe) (k mod v.spe))

let restore v snap =
  if Array.length snap <> scalars v then
    invalid_arg "Variable.restore: snapshot length does not match variable";
  Array.iteri (fun k x -> v.set (k / v.spe) (k mod v.spe) x) snap

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
