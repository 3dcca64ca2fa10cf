(* Criticality-driven checkpointing (paper §III-B, §IV-D).

   Bridges the analyzer and the checkpoint library: given a criticality
   report, [snapshot] packs only critical elements (plus the
   contiguous-region bounds, the paper's auxiliary file) and [restore]
   scatters them back, poisoning uncritical slots to prove they are never
   read.  Without a report the same entry points produce/consume full
   checkpoints — the paper's baseline.

   This is also where every policy turns a variable into sections and
   back: {!Mixed} and {!Incremental} build theirs with [section] and
   restore through [restore_files]. *)

open Scvad_ad
module F = Scvad_checkpoint.Ckpt_format
module Regions = Scvad_checkpoint.Regions

(* Regions lookup from an optional criticality report: [None] means
   checkpoint the variable in full. *)
let regions_for (report : Criticality.report option) name =
  match report with
  | None -> None
  | Some r -> (
      match Criticality.find_opt r name with
      | None -> None
      | Some v ->
          (* All-critical variables get a Full section: same bytes, no
             region metadata. *)
          if Criticality.uncritical v = 0 then None else Some v.Criticality.regions)

(* What a section without regions gathers: one span over every element
   ([F.gather] packs nothing when it is empty). *)
let covered regions elements =
  Option.value regions ~default:[ { Regions.start = 0; stop = elements } ]

(* The one section builder: every policy's sections come from here,
   for variables of both kinds.  Without [regions] the section stores
   every element; otherwise only the covered ones.  [name] defaults to
   the variable's, and [payload] wraps the gathered scalars ([F64] for
   floats, [I64] for ints). *)
let section ?regions ?name ~payload (v : 'a Variable.t) =
  let spe = v.Variable.spe in
  {
    F.name = Option.value name ~default:v.Variable.name;
    dims = Scvad_nd.Shape.dims v.Variable.shape;
    spe;
    regions;
    payload =
      payload
        (F.gather
           ~create:(fun n -> Array.make n v.Variable.fill)
           ~spe
           (covered regions (Variable.elements v))
           v.Variable.read);
  }

let f64 a = F.F64 a
let i64 a = F.I64 a

(* Snapshot the live state of an application instance.  [report = None]
   → full checkpoint; otherwise prune by the report's regions. *)
let snapshot ?report ~app ~iteration
    ~(float_vars : Float_scalar.t Variable.t list)
    ~(int_vars : Variable.int_t list) () =
  let pruned payload (v : _ Variable.t) =
    section ?regions:(regions_for report v.Variable.name) ~payload v
  in
  {
    F.app;
    iteration;
    sections =
      List.map (pruned f64) float_vars
      @ List.map (fun (iv : Variable.int_t) -> pruned i64 iv.Variable.view)
          int_vars;
  }

(* The one restore path.  A variable's sections are those named
   [names v] in each file, oldest file first.  The first writes every
   slot, with poison where it holds no value; each later one overwrites
   only the slots it covers.  Every section must match the variable's
   element count and [spe], and a variable must have one.  [scatter]
   ([F.scatter_floats] or [F.scatter_ints]) refuses a payload of the
   other kind. *)
let restore_files ~who ~poison ~names (files : F.file list)
    ~(float_vars : Float_scalar.t Variable.t list)
    ~(int_vars : Variable.int_t list) =
  let restore_var scatter ~poison (v : _ Variable.t) =
    let name = v.Variable.name in
    let sections =
      List.concat_map
        (fun (file : F.file) ->
          List.filter_map
            (fun n -> List.find_opt (fun s -> s.F.name = n) file.F.sections)
            (names name))
        files
    in
    match sections with
    | [] -> invalid_arg (Printf.sprintf "%s: no section %S" who name)
    | _ ->
        List.iteri
          (fun i s ->
            if
              F.element_count s <> Variable.elements v
              || s.F.spe <> v.Variable.spe
            then
              invalid_arg
                (Printf.sprintf "%s: shape mismatch in %S" who s.F.name);
            scatter ~who s
              ?poison:(if i = 0 then Some poison else None)
              v.Variable.write)
          sections
  in
  List.iter
    (restore_var F.scatter_floats
       ~poison:(Scvad_checkpoint.Failure.poison_value poison))
    float_vars;
  List.iter
    (fun (iv : Variable.int_t) ->
      restore_var F.scatter_ints
        ~poison:(Scvad_checkpoint.Failure.int_poison_value poison)
        iv.Variable.view)
    int_vars

(* Restore a checkpoint into live state.  Variables present in the file
   are overwritten; uncritical slots of pruned sections receive poison.
   Returns the checkpointed iteration count. *)
let restore ?(poison = Scvad_checkpoint.Failure.Nan) (file : F.file)
    ~float_vars ~int_vars =
  restore_files ~who:"Pruned.restore" ~poison
    ~names:(fun n -> [ n ])
    [ file ] ~float_vars ~int_vars;
  file.F.iteration

(* Storage accounting for Table III. *)
type storage = {
  payload_bytes : int; (* 8 bytes per stored scalar *)
  aux_bytes : int; (* region metadata (the auxiliary file) *)
  file_bytes : int; (* actual encoded file size *)
}

let storage_of_file (file : F.file) =
  let payload_bytes =
    List.fold_left (fun acc s -> acc + F.payload_bytes s) 0 file.F.sections
  in
  let aux_bytes =
    List.fold_left (fun acc s -> acc + F.aux_bytes s) 0 file.F.sections
  in
  { payload_bytes; aux_bytes; file_bytes = F.encoded_size file }
