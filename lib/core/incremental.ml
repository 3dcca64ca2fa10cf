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

   A delta checkpoint is an ordinary pruned section, built by
   [Pruned.section] over the changed (optionally also critical)
   elements.  Restore goes through [Pruned.restore_files]: the base
   writes every slot, poison where it stores nothing, and each delta
   overwrites only its own, so a slot that no file covers — an
   uncritical element — stays poisoned, preserving the §IV-C validation
   property. *)

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

(* Per-element change mask vs the last checkpointed values: an element
   changed when any of its [spe] slots differs under [same]. *)
let changed_mask ~spe ~same ~last ~now =
  Array.init (Array.length now / spe) (fun e ->
      let rec any k =
        k < spe
        && ((not (same now.((e * spe) + k) last.((e * spe) + k)))
           || any (k + 1))
      in
      any 0)

(* Floats compare by bits: what a dirty-tracking mechanism would see. *)
let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

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
        match Criticality.find_opt report name with
        | Some v -> v.Criticality.mask
        | None -> Array.make total true)
  in
  let delta last_of ~same ~payload (v : _ Variable.t) =
    let name = v.Variable.name in
    let now = Variable.snapshot v in
    let critical = critical_mask name (Variable.elements v) in
    let mask =
      match Hashtbl.find_opt last_of name with
      | None -> critical (* base checkpoint *)
      | Some last ->
          Array.map2 ( && )
            (changed_mask ~spe:v.Variable.spe ~same ~last ~now)
            critical
    in
    Hashtbl.replace last_of name now;
    Pruned.section ~regions:(Regions.of_mask mask) ~payload v
  in
  {
    F.app;
    iteration;
    sections =
      List.map (delta tracker.floats ~same:same_bits ~payload:Pruned.f64)
        float_vars
      @ List.map
          (fun (iv : Variable.int_t) ->
            delta tracker.ints ~same:Int.equal ~payload:Pruned.i64
              iv.Variable.view)
          int_vars;
  }

(* Restore from the base + delta chain, oldest first.  Slots no file
   covers (uncritical under Combined_with) stay poisoned.  Returns the
   newest file's iteration. *)
let restore ?(poison = Scvad_checkpoint.Failure.Nan) ~(files : F.file list)
    ~float_vars ~int_vars () =
  match List.rev files with
  | [] -> invalid_arg "Incremental.restore: no files"
  | newest :: _ ->
      Pruned.restore_files ~who:"Incremental.restore" ~poison
        ~names:(fun n -> [ n ])
        files ~float_vars ~int_vars;
      newest.F.iteration

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
