(* Static cost model: the golden per-app node-count table at class S,
   the IS zero-node theorem, the hint-drift bound the @cost-check gate
   enforces, predictions at non-zero boundaries and outside a source
   tree, the analyzer's window check, and the Planned-schedule property
   against the register-machine harness (test_segtape.ml).

   The golden numbers are load-bearing: scvad check cost --gate proves each
   equals the dynamically recorded dense tape length exactly, so a
   change here must come with a matching change in the recording (or a
   kernel edit that justifies both). *)

open Scvad_ad
module World = Scvad_cost.World
module Predict = Scvad_cost.Predict
module Plan = Scvad_cost.Plan
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

(* Every committed tape_nodes_hint must sit within 10% of the static
   prediction (the drift that motivated this pass: cg-tiny once sat 51%
   above the truth).  IS predicts zero, where a relative bound is
   meaningless — its hint is a pure preallocation floor. *)
let test_hints_within_10pct () =
  List.iter
    (fun (c : Cost_driver.app_cost) ->
      let predicted = c.Cost_driver.c_p.Predict.p_total in
      if predicted = 0 then
        Alcotest.(check bool)
          (c.Cost_driver.c_app ^ " hint is a positive floor")
          true
          (c.Cost_driver.c_hint > 0)
      else
        let drift =
          Float.abs (float_of_int (c.Cost_driver.c_hint - predicted))
          /. float_of_int predicted
        in
        if drift > 0.10 then
          Alcotest.failf "%s: hint %d drifts %.0f%% from predicted %d"
            c.Cost_driver.c_app c.Cost_driver.c_hint (100. *. drift) predicted)
    (costs ())

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

(* ------------------------------------------------------------------ *)
(* Planner vs. the register machine                                    *)
(* ------------------------------------------------------------------ *)

(* The plan's slab sizing must mirror the tape's own default — the
   planner simulates slab-granular retention, so a disagreement here
   would skew every predicted bound. *)
let test_default_slab_nodes_matches_tape () =
  List.iter
    (fun budget_nodes ->
      let t = Tape.create ~budget_nodes () in
      Alcotest.(check int)
        (Printf.sprintf "budget %d" budget_nodes)
        (Plan.default_slab_nodes ~budget_nodes)
        (Tape.slab_nodes t))
    [ 1; 100; 128; 5_000; 65_536; 524_288; 10_000_000 ]

(* Per-segment node costs of a register-machine program, measured on an
   unbudgeted recording (which never discards, so the running length at
   each boundary is exact). *)
let measure_segments (prog : Test_segtape.prog) =
  let tape = Tape.create ~capacity_hint:16 () in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let nseg = Array.length prog.Test_segtape.segs in
  let regs = Array.make prog.Test_segtape.nregs (Reverse.const 0.) in
  Array.blit
    (Test_segtape.init_regs (Reverse.var tape) prog)
    0 regs 0 prog.Test_segtape.nregs;
  let input_nodes = Array.sub regs 0 prog.Test_segtape.ninputs in
  let prelude = Tape.length tape in
  let segments =
    Array.init nseg (fun s ->
        let before = Tape.length tape in
        Test_segtape.exec (module S) regs prog.Test_segtape.segs.(s);
        if s = nseg - 1 then
          ignore (Test_segtape.sum_regs (module S) regs input_nodes);
        Tape.length tape - before)
  in
  (prelude, segments)

let planned_gen =
  let open QCheck.Gen in
  let* prog = Test_segtape.prog_gen in
  let* budget = int_range 16 600 in
  let* slots = int_range 1 8 in
  return (prog, budget, slots)

let planned_print (p, budget, slots) =
  Printf.sprintf "%s budget=%d slots=%d" (Test_segtape.prog_print p) budget
    slots

(* The PR's planning contract on random programs: a plan computed from
   the measured per-segment costs alone must (a) validate as a Planned
   schedule, (b) reproduce the dense adjoints bitwise, (c) keep peak
   live storage within the slab-granular budget cap AND within the
   plan's own predicted peak, and (d) never exceed the simulator's
   dense-sweep replay bounds — the simulator re-enacts the exact
   retention discipline, so its counts are upper bounds by
   construction. *)
let prop_planned_equals_dense =
  QCheck.Test.make ~count:200
    ~name:"planned schedule bitwise equals dense within the plan's bounds"
    (QCheck.make ~print:planned_print planned_gen)
    (fun (prog, budget, slots) ->
      let dv, dg, _total, _ = Test_segtape.run_dense prog in
      let prelude, segments = measure_segments prog in
      let plan =
        Plan.make ~slab_nodes:16 ~snapshot_slots:slots ~prelude ~segments
          ~budget_nodes:budget ()
      in
      let sv, sg, stats, _, _ =
        Test_segtape.run_segmented ~capacity_hint:16 ~snapshot_slots:slots
          ~schedule:(Tape.Segmented.Planned plan.Plan.boundaries)
          ~budget_nodes:budget prog
      in
      if not (Test_segtape.same_float dv sv) then
        QCheck.Test.fail_reportf "output: dense %.17g <> planned %.17g" dv sv;
      Array.iteri
        (fun i d ->
          if not (Test_segtape.same_float d sg.(i)) then
            QCheck.Test.fail_reportf
              "adjoint of input %d: dense %.17g <> planned %.17g" i d sg.(i))
        dg;
      if stats.Tape.s_total_nodes <> plan.Plan.total_nodes then
        QCheck.Test.fail_reportf "total nodes: recorded %d <> planned %d"
          stats.Tape.s_total_nodes plan.Plan.total_nodes;
      let cap =
        Stdlib.max stats.Tape.s_slab_nodes
          (budget / stats.Tape.s_slab_nodes
          * stats.Tape.s_slab_nodes)
      in
      if stats.Tape.s_peak_live_nodes > cap then
        QCheck.Test.fail_reportf "peak live %d > budget cap %d"
          stats.Tape.s_peak_live_nodes cap;
      if stats.Tape.s_peak_live_nodes > plan.Plan.peak_live_nodes
      then
        QCheck.Test.fail_reportf "peak live %d > planned peak %d"
          stats.Tape.s_peak_live_nodes plan.Plan.peak_live_nodes;
      if stats.Tape.s_replays > plan.Plan.replays then
        QCheck.Test.fail_reportf "%d replays > planned bound %d"
          stats.Tape.s_replays plan.Plan.replays;
      if stats.Tape.s_replayed_nodes > plan.Plan.replayed_nodes then
        QCheck.Test.fail_reportf "%d replayed nodes > planned bound %d"
          stats.Tape.s_replayed_nodes plan.Plan.replayed_nodes;
      true)

(* Planned-schedule validation at create time. *)
let test_planned_validation () =
  let mk bs =
    ignore
      (Tape.create ~schedule:(Tape.Segmented.Planned bs) ~budget_nodes:64 ())
  in
  let rejects bs =
    match mk bs with
    | () -> Alcotest.failf "schedule accepted"
    | exception Invalid_argument _ -> ()
  in
  rejects [];
  rejects [ 1; 2 ];
  (* must start at 0 *)
  rejects [ 0; 3; 3 ];
  (* strictly increasing *)
  rejects [ 0; 5; 2 ];
  mk [ 0 ];
  mk [ 0; 1; 2; 7 ]

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
        Alcotest.test_case "every hint within 10% of prediction" `Slow
          test_hints_within_10pct;
        Alcotest.test_case "plan slab sizing matches the tape" `Quick
          test_default_slab_nodes_matches_tape;
        Alcotest.test_case "planned schedule validation" `Quick
          test_planned_validation;
        QCheck_alcotest.to_alcotest prop_planned_equals_dense;
        Alcotest.test_case "predictions equal the tape at non-zero boundaries"
          `Slow test_nonzero_boundaries;
        Alcotest.test_case "predictions need no source tree" `Quick
          test_no_source_tree;
        Alcotest.test_case "predict rejects an invalid window" `Quick
          test_window_checked;
      ] );
  ]
