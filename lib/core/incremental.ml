(* Incremental checkpointing baseline, and its combination with
   criticality pruning.

   The paper's related work cites page-based incremental checkpointing
   (Vasavada et al.): save only what changed since the previous
   checkpoint.  This module implements the idea at element granularity
   so it composes with the paper's pruning:

     full        every element, every time           (baseline)
     pruned      critical elements, every time       (the paper)
     incremental changed elements since last time    (related work)
     combined    changed AND critical elements       (both)

   A delta checkpoint is an ordinary pruned section whose regions are
   the changed (optionally also critical) elements; restore starts from
   poison and overlays base + deltas in order, so a slot that no file
   covers — an uncritical element — stays poisoned, preserving the
   §IV-C validation property. *)

open Scvad_ad
module F = Scvad_checkpoint.Ckpt_format
module Regions = Scvad_checkpoint.Regions

type mode = Incremental_only | Combined_with of Criticality.report

(* Last-checkpointed scalars per variable name. *)
type tracker = {
  floats : (string, float array) Hashtbl.t;
  ints : (string, int array) Hashtbl.t;
}

let create_tracker () = { floats = Hashtbl.create 8; ints = Hashtbl.create 8 }

(* Per-element change mask vs the last checkpointed values (bitwise
   comparison: what a dirty-tracking mechanism would see). *)
let changed_mask ~spe ~(last : float array) ~(now : float array) =
  Array.init (Array.length now / spe) (fun e ->
      let rec any k =
        k < spe
        && (Int64.bits_of_float now.((e * spe) + k)
            <> Int64.bits_of_float last.((e * spe) + k)
           || any (k + 1))
      in
      any 0)

let criticality_regions report name =
  match Criticality.find_opt report name with
  | Some v -> Some v.Criticality.regions
  | None -> None

let intersect_masks a b = Array.map2 ( && ) a b

(* Snapshot: the first call for a variable produces its base (full or
   pruned); later calls produce deltas.  The tracker always records the
   exact values this checkpoint represents. *)
let snapshot tracker ~mode ~app ~iteration
    ~(float_vars : Float_scalar.t Variable.t list)
    ~(int_vars : Variable.int_t list) () =
  let critical_mask name total =
    match mode with
    | Incremental_only -> Array.make total true
    | Combined_with report -> (
        match criticality_regions report name with
        | Some regions -> Regions.to_mask ~total regions
        | None -> Array.make total true)
  in
  let float_sections =
    List.map
      (fun (v : Float_scalar.t Variable.t) ->
        let name = v.Variable.name in
        let dims = Scvad_nd.Shape.dims v.Variable.shape in
        let now = Pruned.flatten_float v in
        let total = Variable.elements v in
        let mask =
          match Hashtbl.find_opt tracker.floats name with
          | None -> critical_mask name total (* base checkpoint *)
          | Some last ->
              intersect_masks
                (changed_mask ~spe:v.Variable.spe ~last ~now)
                (critical_mask name total)
        in
        Hashtbl.replace tracker.floats name now;
        let regions = Regions.of_mask mask in
        {
          F.name;
          dims;
          spe = v.Variable.spe;
          regions = Some regions;
          payload = F.F64 (F.gather_f64 ~data:now ~spe:v.Variable.spe regions);
        })
      float_vars
  in
  let int_sections =
    List.map
      (fun (v : Variable.int_t) ->
        let name = v.Variable.iname in
        let now = Array.init (Variable.int_elements v) v.Variable.iget in
        let mask =
          match Hashtbl.find_opt tracker.ints name with
          | None -> Array.make (Array.length now) true
          | Some last -> Array.map2 ( <> ) last now
        in
        Hashtbl.replace tracker.ints name now;
        let regions = Regions.of_mask mask in
        {
          F.name;
          dims = Scvad_nd.Shape.dims v.Variable.ishape;
          spe = 1;
          regions = Some regions;
          payload = F.I64 (F.gather_i64 ~data:now ~spe:1 regions);
        })
      int_vars
  in
  { F.app; iteration; sections = float_sections @ int_sections }

(* Overlay one section's covered elements onto a scalar buffer. *)
let overlay_f64 (s : F.section) (buf : float array) =
  match (s.F.payload, s.F.regions) with
  | F.F64 packed, Some regions ->
      let pos = ref 0 in
      Regions.iter_elements regions (fun e ->
          for k = 0 to s.F.spe - 1 do
            buf.((e * s.F.spe) + k) <- packed.(!pos);
            incr pos
          done)
  | F.F64 packed, None -> Array.blit packed 0 buf 0 (Array.length packed)
  | (F.I64 _ | F.F32 _), _ -> invalid_arg "Incremental.overlay_f64"

let overlay_i64 (s : F.section) (buf : int array) =
  match (s.F.payload, s.F.regions) with
  | F.I64 packed, Some regions ->
      let pos = ref 0 in
      Regions.iter_elements regions (fun e ->
          buf.(e) <- packed.(!pos);
          incr pos)
  | F.I64 packed, None -> Array.blit packed 0 buf 0 (Array.length packed)
  | (F.F64 _ | F.F32 _), _ -> invalid_arg "Incremental.overlay_i64"

(* Restore from the base + delta chain, oldest first.  Slots no file
   covers (uncritical under Combined_with) stay poisoned.  Returns the
   newest file's iteration. *)
let restore ?(poison = Scvad_checkpoint.Failure.Nan) ~(files : F.file list)
    ~(float_vars : Float_scalar.t Variable.t list)
    ~(int_vars : Variable.int_t list) () =
  match files with
  | [] -> invalid_arg "Incremental.restore: no files"
  | _ ->
      List.iter
        (fun (v : Float_scalar.t Variable.t) ->
          let total = Variable.elements v * v.Variable.spe in
          let buf =
            Array.make total (Scvad_checkpoint.Failure.poison_value poison)
          in
          List.iter
            (fun (file : F.file) ->
              match
                List.find_opt
                  (fun s -> s.F.name = v.Variable.name)
                  file.F.sections
              with
              | Some s -> overlay_f64 s buf
              | None -> ())
            files;
          for e = 0 to Variable.elements v - 1 do
            for k = 0 to v.Variable.spe - 1 do
              v.Variable.set e k buf.((e * v.Variable.spe) + k)
            done
          done)
        float_vars;
      List.iter
        (fun (v : Variable.int_t) ->
          let buf =
            Array.make (Variable.int_elements v)
              (Scvad_checkpoint.Failure.int_poison_value poison)
          in
          List.iter
            (fun (file : F.file) ->
              match
                List.find_opt (fun s -> s.F.name = v.Variable.iname) file.F.sections
              with
              | Some s -> overlay_i64 s buf
              | None -> ())
            files;
          Array.iteri (fun e x -> v.Variable.iset e x) buf)
        int_vars;
      (List.nth files (List.length files - 1)).F.iteration

(* ------------------------------------------------------------------ *)
(* Storage comparison across policies                                  *)
(* ------------------------------------------------------------------ *)

type policy_bytes = {
  full : int list; (* payload bytes per checkpoint *)
  pruned : int list;
  incremental : int list;
  combined : int list;
}

(* Run [checkpoints] checkpoints (one per iteration after the first
   [warmup]) under all four policies and collect per-checkpoint payload
   bytes. *)
let storage_comparison ?(warmup = 1) ~checkpoints (module A : App.S)
    (report : Criticality.report) =
  let module I = A.Float in
  let st = I.create () in
  I.run st ~from:0 ~until:warmup;
  let inc = create_tracker () and comb = create_tracker () in
  let bytes file = (Pruned.storage_of_file file).Pruned.payload_bytes in
  let step_data i =
    let fv = I.float_vars st and iv = I.int_vars st in
    let full =
      bytes (Pruned.snapshot ~app:A.name ~iteration:i ~float_vars:fv ~int_vars:iv ())
    in
    let pruned =
      bytes
        (Pruned.snapshot ~report ~app:A.name ~iteration:i ~float_vars:fv
           ~int_vars:iv ())
    in
    let incremental =
      bytes
        (snapshot inc ~mode:Incremental_only ~app:A.name ~iteration:i
           ~float_vars:fv ~int_vars:iv ())
    in
    let combined =
      bytes
        (snapshot comb ~mode:(Combined_with report) ~app:A.name ~iteration:i
           ~float_vars:fv ~int_vars:iv ())
    in
    (full, pruned, incremental, combined)
  in
  let rows =
    List.init checkpoints (fun k ->
        if k > 0 then I.run st ~from:(warmup + k - 1) ~until:(warmup + k);
        step_data (warmup + k))
  in
  {
    full = List.map (fun (a, _, _, _) -> a) rows;
    pruned = List.map (fun (_, b, _, _) -> b) rows;
    incremental = List.map (fun (_, _, c, _) -> c) rows;
    combined = List.map (fun (_, _, _, d) -> d) rows;
  }
