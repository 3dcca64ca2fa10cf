(* Tests for the incremental-checkpointing baseline and its combination
   with criticality pruning. *)

open Scvad_core
module Inc = Incremental
module Npb = Scvad_npb

let bt_report = lazy (Analyzer.run (module Npb.Bt.App))

let test_delta_shrinks_after_base () =
  let c =
    Inc.storage_comparison ~checkpoints:3 (module Npb.Bt.App)
      (Lazy.force bt_report)
  in
  (match c.Inc.incremental with
  | base :: deltas ->
      Alcotest.(check bool) "base is full-sized" true
        (base = List.hd c.Inc.full);
      List.iter
        (fun d ->
          Alcotest.(check bool) "delta smaller than full" true
            (d < List.hd c.Inc.full))
        deltas
  | [] -> Alcotest.fail "no checkpoints");
  (* BT: only the 10^3 interior changes per step -> delta = 5000
     elements + the step counter. *)
  Alcotest.(check int) "BT delta bytes" ((5000 * 8) + 8)
    (List.nth c.Inc.incremental 1)

let test_combined_never_worse () =
  List.iter
    (fun name ->
      let (module A : App.S) = Option.get (Npb.Suite.find name) in
      let report = Analyzer.run (module A) in
      let c = Inc.storage_comparison ~checkpoints:3 (module A) report in
      List.iteri
        (fun i comb ->
          Alcotest.(check bool)
            (Printf.sprintf "%s ckpt %d: combined <= pruned" name i)
            true
            (comb <= List.nth c.Inc.pruned i);
          Alcotest.(check bool)
            (Printf.sprintf "%s ckpt %d: combined <= incremental" name i)
            true
            (comb <= List.nth c.Inc.incremental i))
        c.Inc.combined)
    [ "bt"; "mg"; "cg" ]

(* Full crash/restart through a base + delta chain, with pruning. *)
let test_incremental_restart_verifies () =
  let (module A : App.S) = (module Npb.Bt.App) in
  let report = Lazy.force bt_report in
  let niter = 6 in
  let module I = A.Make (Scvad_ad.Float_scalar) in
  (* Golden. *)
  let golden =
    let st = I.create () in
    I.run st ~from:0 ~until:niter;
    I.output st
  in
  (* Protected run: checkpoint after iterations 2, 3, 4 (base at 2),
     then "crash" before 5 finishes. *)
  let st = I.create () in
  let tracker = Inc.create_tracker () in
  let files = ref [] in
  I.run st ~from:0 ~until:2;
  for it = 2 to 4 do
    if it > 2 then I.run st ~from:(it - 1) ~until:it;
    files :=
      !files
      @ [ Inc.snapshot tracker ~mode:(Inc.Combined_with report) ~app:A.name
            ~iteration:it ~float_vars:(I.float_vars st)
            ~int_vars:(I.int_vars st) () ]
  done;
  (* Restart from the chain; uncritical slots poisoned. *)
  let st2 = I.create () in
  let from =
    Inc.restore ~files:!files ~float_vars:(I.float_vars st2)
      ~int_vars:(I.int_vars st2) ()
  in
  Alcotest.(check int) "restored at newest checkpoint" 4 from;
  I.run st2 ~from ~until:niter;
  Alcotest.(check bool) "bitwise verification" true
    (Int64.bits_of_float golden = Int64.bits_of_float (I.output st2))

let test_restore_chain_semantics () =
  (* Values present only in the base must survive deltas; uncritical
     slots must stay poisoned. *)
  let (module A : App.S) = (module Npb.Bt.App) in
  let report = Lazy.force bt_report in
  let module I = A.Make (Scvad_ad.Float_scalar) in
  let st = I.create () in
  I.run st ~from:0 ~until:1;
  let tracker = Inc.create_tracker () in
  let f1 =
    Inc.snapshot tracker ~mode:(Inc.Combined_with report) ~app:A.name
      ~iteration:1 ~float_vars:(I.float_vars st) ~int_vars:(I.int_vars st) ()
  in
  let boundary_value = (Variable.read_element (List.hd (I.float_vars st)) 0).(0) in
  I.run st ~from:1 ~until:2;
  let f2 =
    Inc.snapshot tracker ~mode:(Inc.Combined_with report) ~app:A.name
      ~iteration:2 ~float_vars:(I.float_vars st) ~int_vars:(I.int_vars st) ()
  in
  let st2 = I.create () in
  let _ =
    Inc.restore ~files:[ f1; f2 ] ~float_vars:(I.float_vars st2)
      ~int_vars:(I.int_vars st2) ()
  in
  let v2 = List.hd (I.float_vars st2) in
  (* element 0 = u[0][0][0][0]: boundary, critical, never changes after
     the base. *)
  Alcotest.(check (float 0.)) "base value survives the delta"
    boundary_value (Variable.read_element v2 0).(0);
  (* a padded (uncritical) element stays poisoned *)
  let pad = ((((0 * 13) + 12) * 13) + 0) * 5 in
  Alcotest.(check bool) "uncritical slot poisoned" true
    (Float.is_nan (Variable.read_element v2 pad).(0));
  (* empty chain rejected *)
  match
    Inc.restore ~files:[] ~float_vars:(I.float_vars st2)
      ~int_vars:(I.int_vars st2) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty chain accepted"

let test_mg_story () =
  (* The complementary-techniques result: on MG, incremental barely
     helps (comm3 rewrites nearly everything every V-cycle) while
     pruning saves ~19%; combined equals pruned. *)
  let (module A : App.S) = (module Npb.Mg.App) in
  let report = Analyzer.run (module A) in
  let c = Inc.storage_comparison ~checkpoints:3 (module A) report in
  let full = List.hd c.Inc.full in
  let delta = List.nth c.Inc.incremental 1 in
  Alcotest.(check bool) "incremental saves < 2% on MG" true
    (float_of_int delta > 0.98 *. float_of_int full);
  Alcotest.(check bool) "pruning saves ~19% on MG" true
    (float_of_int (List.hd c.Inc.pruned) < 0.82 *. float_of_int full)

let suites =
  [ ( "incremental",
      [ Alcotest.test_case "delta shrinks after base (BT)" `Quick
          test_delta_shrinks_after_base;
        Alcotest.test_case "combined never worse" `Quick
          test_combined_never_worse;
        Alcotest.test_case "restart through delta chain verifies" `Quick
          test_incremental_restart_verifies;
        Alcotest.test_case "chain semantics + poison" `Quick
          test_restore_chain_semantics;
        Alcotest.test_case "MG: pruning and dirty-tracking are \
                            complementary" `Quick test_mg_story ] ) ]
