(* End-to-end checkpoint/restart harness (paper §IV-C).

   Protocol:
   1. golden run — uninterrupted, records the reference output;
   2. protected run — checkpoints every [every] iterations (pruned by a
      criticality report, or full) and crashes at a chosen iteration;
   3. restart — restores a checkpoint, poisons uncritical elements,
      finishes the run.  [restart_from_latest] trusts the newest file;
      [restart_resilient] walks backward over corrupt or unreadable
      checkpoints to the newest valid one (or all the way to a cold
      start), replaying the extra iterations;
   4. verification — the restarted output must equal the golden output
      bit for bit (floats are compared exactly: a correct restart replays
      the identical instruction stream on the critical data).           *)

open Scvad_ad
module Failure_ = Scvad_checkpoint.Failure
module Store = Scvad_checkpoint.Store

type run_result = { output : float; iterations : int }

(* Every experiment answers the same question — did the perturbed run
   reproduce the golden output bit for bit? *)
type experiment_result = {
  golden : run_result;
  restarted : run_result;
  verified : bool;
}

let golden_run ?niter (module A : App.S) =
  let niter = Option.value niter ~default:A.default_niter in
  let module I = A.Float in
  let state = I.create () in
  I.run state ~from:0 ~until:niter;
  { output = I.output state; iterations = niter }

(* Run with periodic checkpoints into [store]; raise
   [Failure_.Crash] at iteration [crash_at] if given.  Checkpoints are
   taken after each [every]-th iteration completes (and never for the
   final iteration, where the run is already done). *)
let run_with_checkpoints ?report ?crash_at ?niter ~store ~every
    (module A : App.S) =
  if every <= 0 then invalid_arg "Harness.run_with_checkpoints: every <= 0";
  let niter = Option.value niter ~default:A.default_niter in
  let module I = A.Float in
  let state = I.create () in
  let checkpoint iteration =
    let file =
      Pruned.snapshot ?report ~app:A.name ~iteration
        ~float_vars:(I.float_vars state) ~int_vars:(I.int_vars state) ()
    in
    ignore (Store.save ~sidecar_aux:true store file)
  in
  let rec go from =
    if from >= niter then { output = I.output state; iterations = niter }
    else begin
      let until = min niter (from + every) in
      (* The failure strikes while the segment containing [crash_at] is
         executing, i.e. before its checkpoint is taken. *)
      (match crash_at with
      | Some at when from <= at && at < until ->
          raise (Failure_.Crash { iteration = at })
      | Some _ | None -> ());
      I.run state ~from ~until;
      if until < niter then checkpoint until;
      go until
    end
  in
  go 0

(* Restore the newest checkpoint and finish the run. *)
let restart_from_latest ?(poison = Failure_.Nan) ?niter ~store
    (module A : App.S) =
  let niter = Option.value niter ~default:A.default_niter in
  let module I = A.Float in
  match Store.latest store with
  | None -> invalid_arg "Harness.restart_from_latest: empty store"
  | Some file ->
      let state = I.create () in
      let from =
        Pruned.restore ~poison file ~float_vars:(I.float_vars state)
          ~int_vars:(I.int_vars state)
      in
      I.run state ~from ~until:niter;
      { output = I.output state; iterations = niter }

(* ------------------------------------------------------------------ *)
(* Graceful-degradation restart                                        *)
(* ------------------------------------------------------------------ *)

type restart_report = {
  run : run_result;
  restored_iteration : int; (* 0 = cold restart, no checkpoint survived *)
  skipped : (int * string) list; (* rejected checkpoints, newest first *)
}

(* Walk backward from the newest checkpoint, skipping any that fail the
   CRC, decode, or restore; restore the newest valid one and replay the
   extra iterations.  If no checkpoint survives, restart cold from
   iteration 0 — strictly slower, never wrong. *)
let restart_resilient ?(poison = Failure_.Nan) ?niter ~store
    (module A : App.S) =
  let niter = Option.value niter ~default:A.default_niter in
  let module I = A.Float in
  let rec walk skipped = function
    | [] ->
        let state = I.create () in
        I.run state ~from:0 ~until:niter;
        {
          run = { output = I.output state; iterations = niter };
          restored_iteration = 0;
          skipped = List.rev skipped;
        }
    | it :: older -> (
        match Store.load store it with
        | Error e -> walk ((it, Store.describe_error e) :: skipped) older
        | Ok file -> (
            (* A decodable checkpoint can still fail to restore (wrong
               app, shape drift): a fresh state per attempt keeps a
               failed restore from tainting the next candidate. *)
            let state = I.create () in
            match
              Pruned.restore ~poison file ~float_vars:(I.float_vars state)
                ~int_vars:(I.int_vars state)
            with
            | from ->
                I.run state ~from ~until:niter;
                {
                  run = { output = I.output state; iterations = niter };
                  restored_iteration = from;
                  skipped = List.rev skipped;
                }
            | exception Invalid_argument reason ->
                walk ((it, "restore failed: " ^ reason) :: skipped) older))
  in
  walk [] (List.rev (Store.list_iterations store))

(* Bitwise output equality — the verification oracle. *)
let verified ~golden ~restarted =
  Int64.bits_of_float golden.output = Int64.bits_of_float restarted.output

(* Silent-data-corruption probe: flip one bit of one element of one
   checkpoint variable at a checkpoint boundary and finish the run.
   The paper's criterion in executable form: an uncritical element must
   leave the output bit-identical ([verified]); a critical one
   generally must not. *)
let corrupt_element_experiment ?niter ?(bit = 30) ~at_iter ~var ~element
    (module A : App.S) =
  let niter = Option.value niter ~default:A.default_niter in
  if at_iter < 0 || at_iter >= niter then
    invalid_arg "Harness.corrupt_element_experiment: bad boundary";
  let golden = golden_run ~niter (module A : App.S) in
  let module I = A.Float in
  let state = I.create () in
  I.run state ~from:0 ~until:at_iter;
  let v =
    match
      List.find_opt
        (fun (v : Float_scalar.t Variable.t) -> v.Variable.name = var)
        (I.float_vars state)
    with
    | Some v -> v
    | None ->
        invalid_arg
          (Printf.sprintf "Harness.corrupt_element_experiment: no variable %S" var)
  in
  if element < 0 || element >= Variable.elements v then
    invalid_arg "Harness.corrupt_element_experiment: element out of range";
  let cell = Variable.read_element v element in
  cell.(0) <- Failure_.flip_bit cell.(0) ~bit;
  Variable.write_element v element cell;
  I.run state ~from:at_iter ~until:niter;
  let corrupted = { output = I.output state; iterations = niter } in
  { golden; restarted = corrupted; verified = verified ~golden ~restarted:corrupted }

(* The full §IV-C experiment: golden run, crash halfway, pruned restart,
   verify. *)
let crash_restart_experiment ?report ?(poison = Failure_.Nan) ?niter ~store
    ~every ~crash_at (module A : App.S) =
  Store.wipe store;
  let golden = golden_run ?niter (module A : App.S) in
  (match
     run_with_checkpoints ?report ~crash_at ?niter ~store ~every
       (module A : App.S)
   with
  | _ -> failwith "crash_restart_experiment: the run did not crash"
  | exception Failure_.Crash _ -> ());
  let restarted = restart_from_latest ~poison ?niter ~store (module A : App.S) in
  { golden; restarted; verified = verified ~golden ~restarted }

(* One-call pruned-restart verification of a report, used by the
   @guard-check gate: run the full §IV-C experiment with this report's
   masks in a throwaway store under the system temp directory.  [every]
   is a quarter of the run (at least 1) and the crash lands just after
   the first checkpoint, so the restart genuinely exercises the pruned
   state.  The store is wiped afterwards. *)
let verify_report ?niter ~report (module A : App.S) =
  let niter = Option.value niter ~default:A.default_niter in
  if niter < 2 then invalid_arg "Harness.verify_report: need niter >= 2";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("scvad-verify-" ^ A.name)
  in
  let store = Store.create dir in
  let every = max 1 (niter / 4) in
  let crash_at = if every + 1 < niter then every + 1 else niter - 1 in
  Fun.protect
    ~finally:(fun () -> Store.wipe store)
    (fun () ->
      crash_restart_experiment ~report ~niter ~store ~every ~crash_at
        (module A : App.S))

(* ------------------------------------------------------------------ *)
(* Resilient experiment                                                *)
(* ------------------------------------------------------------------ *)

type resilient_result = {
  experiment : experiment_result;
  restored_iteration : int;
  skipped : (int * string) list;
}

(* §IV-C under storage failures: crash as above, let [sabotage] damage
   the store (or rely on the store's own fault plan), then restart
   resiliently.  The experiment must still verify bit for bit — from an
   older checkpoint, or from a cold start if nothing survived. *)
let crash_restart_resilient_experiment ?report ?(poison = Failure_.Nan) ?niter
    ?(sabotage = fun (_ : Store.t) -> ()) ~store ~every ~crash_at
    (module A : App.S) =
  Store.wipe store;
  let golden = golden_run ?niter (module A : App.S) in
  (match
     run_with_checkpoints ?report ~crash_at ?niter ~store ~every
       (module A : App.S)
   with
  | _ -> failwith "crash_restart_resilient_experiment: the run did not crash"
  | exception Failure_.Crash _ -> ());
  sabotage store;
  let r = restart_resilient ~poison ?niter ~store (module A : App.S) in
  {
    experiment =
      { golden; restarted = r.run; verified = verified ~golden ~restarted:r.run };
    restored_iteration = r.restored_iteration;
    skipped = r.skipped;
  }
