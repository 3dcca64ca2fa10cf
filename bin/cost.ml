(* `scvad check cost`: tape-size predictions from running the compiled
   NPB kernels on a counting tape, with an optional dynamic exactness
   gate.

   --gate runs the real dynamic reverse analysis for every predicted
   app and fails unless every prediction matches the measured tape
   node count EXACTLY, every committed tape_nodes_hint sits within 10%
   of its prediction, IS is proven to record zero float nodes, and a
   planned segmented analysis reproduces the dense masks bitwise within
   its predicted replay budget. *)

module World = Scvad_cost.World
module Driver = Scvad_cost.Driver
module Predict = Scvad_cost.Predict
module Plan = Scvad_cost.Plan
module Criticality = Scvad_core.Criticality
module Config = Scvad_core.Analyzer.Config

let violation = ref false

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "cost: GATE VIOLATION: %s\n" msg;
      violation := true)
    fmt

(* The gate, part 1: every prediction must equal the dynamically
   measured dense tape node count, exactly — the cost model claims a
   node-for-node reproduction of the recording, so "close" is a bug. *)
let check_exactness (c : Driver.app_cost) =
  match Gate.registered ~pass:"cost" c.Driver.c_app with
  | None -> violation := true
  | Some (module A : Scvad_core.App.S) ->
      let report = Scvad_core.Analyzer.run (module A) in
      let measured = report.Criticality.tape_nodes in
      let predicted = c.Driver.c_p.Predict.p_total in
      if measured <> predicted then
        fail "%s: predicted %d nodes but the dense tape recorded %d"
          c.Driver.c_app predicted measured

(* The gate, part 2: committed hand-maintained hints must stay within
   10% of the prediction (the drift that motivated this pass: cg-tiny
   once sat 51% above the truth).  A zero-node analysis (IS) makes any
   relative bound meaningless; its hint is a pure preallocation floor. *)
let check_hint (c : Driver.app_cost) =
  let predicted = c.Driver.c_p.Predict.p_total in
  if predicted > 0 then begin
    let drift =
      Float.abs (float_of_int (c.Driver.c_hint - predicted))
      /. float_of_int predicted
    in
    if drift > 0.10 then
      fail "%s: tape_nodes_hint %d drifts %.0f%% from the predicted %d"
        c.Driver.c_app c.Driver.c_hint (100. *. drift) predicted
  end

(* The gate, part 3: the paper's IS observation — an integer sort
   records no float operations — must come out of the model as an exact
   zero, not a small number. *)
let check_is_zero costs =
  match
    List.find_opt (fun c -> c.Driver.c_app = "is") costs
  with
  | None -> fail "the gate did not cover IS"
  | Some c ->
      if c.Driver.c_p.Predict.p_total <> 0 then
        fail "IS predicted %d float nodes; the model must prove exactly 0"
          c.Driver.c_p.Predict.p_total

(* The gate, part 4: a multi-segment analysis under a Planned schedule
   must reproduce the dense masks bitwise, stay within the budget, and
   not exceed the planner's dense-sweep replay upper bounds. *)
let check_planned world =
  let name = "cg-tiny" and niter = 4 in
  match World.find_app world name with
  | Some (module A : Scvad_core.App.S) -> (
      let p = Predict.predict ~niter (module A) in
      let budget_nodes = Stdlib.max 1 (p.Predict.p_total / 3) in
      let plan = Plan.of_prediction p ~budget_nodes in
      let dense =
        Scvad_core.Analyzer.run
          ~config:Config.(default |> with_niter niter)
          (module A)
      in
      let planned =
        Scvad_core.Analyzer.run
          ~config:
            Config.(
              default |> with_niter niter
              |> with_memory_budget budget_nodes
              |> with_schedule
                   (Scvad_ad.Tape.Segmented.Planned plan.Plan.boundaries))
          (module A)
      in
      List.iter
        (fun (v : Criticality.var_report) ->
          let d = Criticality.find dense v.Criticality.name in
          if d.Criticality.mask <> v.Criticality.mask then
            fail "%s.%s: planned-schedule mask differs from the dense analysis"
              name v.Criticality.name)
        planned.Criticality.vars;
      match planned.Criticality.tape_profile with
      | None -> fail "%s: planned analysis carries no tape profile" name
      | Some prof ->
          if prof.Criticality.t_peak_live_nodes > plan.Plan.peak_live_nodes
          then
            fail "%s: peak live %d nodes exceeds the planned %d" name
              prof.Criticality.t_peak_live_nodes plan.Plan.peak_live_nodes;
          if prof.Criticality.t_replayed_nodes > plan.Plan.replayed_nodes then
            fail "%s: %d replayed nodes exceeds the planned bound %d" name
              prof.Criticality.t_replayed_nodes plan.Plan.replayed_nodes;
          if prof.Criticality.t_replays > plan.Plan.replays then
            fail "%s: %d replays exceeds the planned bound %d" name
              prof.Criticality.t_replays plan.Plan.replays)
  | None -> fail "planned-schedule check: %s is not available" name

let run_gate world costs =
  List.iter
    (fun c ->
      check_exactness c;
      check_hint c)
    costs;
  check_is_zero costs;
  check_planned world;
  if not !violation then
    Printf.eprintf
      "cost: gate passed: %d prediction(s) exact against the dynamic tape, \
       all hints within 10%%, IS proven zero-node, planned schedule \
       bitwise-identical within its replay bounds.\n"
      (List.length costs);
  not !violation

(* The predictions run the compiled kernels, so the source ROOT the
   other passes read is not consulted. *)
let check ~json ~gate _root =
  let world = World.load () in
  let costs = Driver.analyze world in
  let fits = Driver.fit_families world in
  let render = if json then Driver.render_json else Driver.render_text in
  (render costs fits, [], fun () -> (not gate) || run_gate world costs)
