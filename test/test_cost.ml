(* Static cost model: the golden per-app node-count table at class S,
   the IS zero-node theorem, the hint-drift bound the @cost-check gate
   enforces, predictions at non-zero boundaries and outside a source
   tree, and the analyzer's window check.

   The golden numbers are load-bearing: scvad check cost --gate proves each
   equals the dynamically recorded dense tape length exactly, so a
   change here must come with a matching change in the recording (or a
   kernel edit that justifies both). *)

module World = Scvad_cost.World
module Predict = Scvad_cost.Predict
module Cost_driver = Scvad_cost.Driver

(* One counting pass for the whole suite: FT dominates the cost, and
   every test below only reads the results. *)
let costs_cache = ref None

let costs () =
  match !costs_cache with
  | Some c -> c
  | None ->
      let c = Cost_driver.analyze (World.load ()) in
      costs_cache := Some c;
      c

let find_app name =
  match World.find_app (World.load ()) name with
  | Some app -> app
  | None -> Alcotest.failf "no app named %s" name

let find_cost app =
  match
    List.find_opt (fun c -> c.Cost_driver.c_app = app) (costs ())
  with
  | Some c -> c
  | None -> Alcotest.failf "no cost entry for %s" app

(* ------------------------------------------------------------------ *)
(* Golden predictions                                                  *)
(* ------------------------------------------------------------------ *)

let golden_totals =
  [
    ("bt", 3_568_446);
    ("sp", 601_446);
    ("mg", 2_357_624);
    ("cg", 4_429_154);
    ("lu", 640_637);
    ("ft", 24_530_844);
    ("ep", 284_950);
    ("is", 0);
    ("cg-tiny", 21_648);
  ]

let test_golden_totals () =
  List.iter
    (fun (app, nodes) ->
      let c = find_cost app in
      Alcotest.(check int)
        (app ^ " predicted nodes") nodes c.Cost_driver.c_p.Predict.p_total)
    golden_totals

(* The model's total is its own parts: lift + segments + output. *)
let test_totals_decompose () =
  List.iter
    (fun (c : Cost_driver.app_cost) ->
      let p = c.Cost_driver.c_p in
      Alcotest.(check int)
        (c.Cost_driver.c_app ^ " decomposition")
        p.Predict.p_total
        (p.Predict.p_lift
        + Array.fold_left ( + ) 0 p.Predict.p_segments
        + p.Predict.p_output))
    (costs ())

(* IS is the paper's motivating observation: an integer sort has no
   float dataflow, so its reverse tape is empty — exactly zero, in
   every phase, not merely small. *)
let test_is_zero () =
  let p = (find_cost "is").Cost_driver.c_p in
  Alcotest.(check int) "is: lift nodes" 0 p.Predict.p_lift;
  Alcotest.(check int) "is: output nodes" 0 p.Predict.p_output;
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "is: segment %d" i) 0 n)
    p.Predict.p_segments;
  Alcotest.(check int) "is: total" 0 p.Predict.p_total

(* Prediction equals the dense recording at non-zero boundaries too:
   the prefix runs as constants and pushes nothing, in both. *)
let test_nonzero_boundaries () =
  List.iter
    (fun (name, niter, at_iter) ->
      let app = find_app name in
      let p = Predict.predict ~at_iter ?niter app in
      let config =
        let c = Scvad_core.Analyzer.Config.(default |> with_at_iter at_iter) in
        match niter with
        | Some n -> Scvad_core.Analyzer.Config.with_niter n c
        | None -> c
      in
      let r = Scvad_core.Analyzer.run ~config app in
      Alcotest.(check int)
        (Printf.sprintf "%s at boundary %d" name at_iter)
        r.Scvad_core.Criticality.tape_nodes p.Predict.p_total)
    [ ("lu", None, 1); ("is", None, 3); ("cg-tiny", Some 4, 2) ]

(* Predictions run the compiled kernels, so they need no source tree:
   from a directory outside the checkout, cg-tiny still predicts its
   golden total. *)
let test_no_source_tree () =
  let cwd = Sys.getcwd () in
  let dir = Filename.temp_dir "scvad_cost" "" in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Sys.rmdir dir)
    (fun () ->
      Sys.chdir dir;
      match World.find_app (World.load ()) "cg-tiny" with
      | None -> Alcotest.fail "cg-tiny is not loaded"
      | Some app ->
          Alcotest.(check int)
            "cg-tiny predicted nodes" 21_648
            (Predict.predict app).Predict.p_total)

(* A window [Analyzer.run] rejects is rejected with the analyzer's
   message, not predicted as an empty plan or a crash. *)
let test_window_checked () =
  List.iter
    (fun (name, niter, at_iter) ->
      match Predict.predict ~at_iter ?niter (find_app name) with
      | _ -> Alcotest.failf "%s: window [%d, niter) was predicted" name at_iter
      | exception Invalid_argument msg ->
          if
            not
              (Astring.String.is_infix ~affix:"need 0 <= at_iter < niter" msg)
          then Alcotest.failf "%s: unexpected message %s" name msg)
    [ ("bt", None, 3); ("cg-tiny", Some 1, 1); ("lu", None, -1) ]

let suites =
  [
    ( "cost",
      [
        Alcotest.test_case "golden predicted totals (class S)" `Slow
          test_golden_totals;
        Alcotest.test_case "totals decompose into phases" `Slow
          test_totals_decompose;
        Alcotest.test_case "IS records exactly zero float nodes" `Slow
          test_is_zero;
        Alcotest.test_case "predictions equal the tape at non-zero boundaries"
          `Slow test_nonzero_boundaries;
        Alcotest.test_case "predictions need no source tree" `Quick
          test_no_source_tree;
        Alcotest.test_case "predict rejects an invalid window" `Quick
          test_window_checked;
      ] );
  ]
