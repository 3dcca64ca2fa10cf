(* Criticality-driven checkpointing (paper §III-B, §IV-D).

   Bridges the analyzer and the checkpoint library: given a criticality
   report, [snapshot] packs only critical elements (plus the
   contiguous-region bounds, the paper's auxiliary file) and [restore]
   scatters them back, poisoning uncritical slots to prove they are never
   read.  Without a report the same entry points produce/consume full
   checkpoints — the paper's baseline. *)

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

let flatten_float (v : Float_scalar.t Variable.t) =
  let n = Variable.elements v in
  let out = Array.make (n * v.Variable.spe) 0. in
  for e = 0 to n - 1 do
    for k = 0 to v.Variable.spe - 1 do
      out.((e * v.Variable.spe) + k) <- v.Variable.get e k
    done
  done;
  out

let float_section ?report (v : Float_scalar.t Variable.t) =
  let spe = v.Variable.spe in
  let regions = regions_for report v.Variable.name in
  let payload =
    match regions with
    | None -> flatten_float v
    | Some r -> F.gather ~create:Array.create_float ~spe r v.Variable.get
  in
  {
    F.name = v.Variable.name;
    dims = Scvad_nd.Shape.dims v.Variable.shape;
    spe;
    regions;
    payload = F.F64 payload;
  }

let int_section ?report (v : Variable.int_t) =
  let regions = regions_for report v.Variable.iname in
  let payload =
    match regions with
    | None -> Array.init (Variable.int_elements v) v.Variable.iget
    | Some r ->
        F.gather ~create:(fun n -> Array.make n 0) ~spe:1 r (fun e _ ->
            v.Variable.iget e)
  in
  {
    F.name = v.Variable.iname;
    dims = Scvad_nd.Shape.dims v.Variable.ishape;
    spe = 1;
    regions;
    payload = F.I64 payload;
  }

(* Snapshot the live state of an application instance.  [report = None]
   → full checkpoint; otherwise prune by the report's regions. *)
let snapshot ?report ~app ~iteration
    ~(float_vars : Float_scalar.t Variable.t list)
    ~(int_vars : Variable.int_t list) () =
  {
    F.app;
    iteration;
    sections =
      List.map (float_section ?report) float_vars
      @ List.map (int_section ?report) int_vars;
  }

(* Restore a checkpoint into live state.  Variables present in the file
   are overwritten; uncritical slots of pruned sections receive poison.
   Returns the checkpointed iteration count. *)
let restore ?(poison = Scvad_checkpoint.Failure.Nan) (file : F.file)
    ~(float_vars : Float_scalar.t Variable.t list)
    ~(int_vars : Variable.int_t list) =
  let section name =
    match List.find_opt (fun s -> s.F.name = name) file.F.sections with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "Pruned.restore: no section %S" name)
  in
  List.iter
    (fun (v : Float_scalar.t Variable.t) ->
      let s = section v.Variable.name in
      if F.element_count s <> Variable.elements v || s.F.spe <> v.Variable.spe
      then invalid_arg "Pruned.restore: shape mismatch";
      F.scatter_floats s
        ~poison:(Scvad_checkpoint.Failure.poison_value poison)
        v.Variable.set)
    float_vars;
  List.iter
    (fun (v : Variable.int_t) ->
      let s = section v.Variable.iname in
      if F.element_count s <> Variable.int_elements v then
        invalid_arg "Pruned.restore: shape mismatch";
      F.scatter_ints s
        ~poison:(Scvad_checkpoint.Failure.int_poison_value poison)
        (fun e _ x -> v.Variable.iset e x))
    int_vars;
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
