(* `scvad check cost`: tape-size predictions from running the compiled
   NPB kernels on a counting tape, with an optional dynamic exactness
   gate.

   --gate runs the real dynamic reverse analysis for every predicted
   app and fails unless every prediction matches the measured tape
   node count EXACTLY and IS is proven to record zero float nodes. *)

module World = Scvad_cost.World
module Driver = Scvad_cost.Driver
module Predict = Scvad_cost.Predict
module Criticality = Scvad_core.Criticality

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

(* The gate, part 2: the paper's IS observation — an integer sort
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

let run_gate costs =
  List.iter check_exactness costs;
  check_is_zero costs;
  if not !violation then
    Printf.eprintf
      "cost: gate passed: %d prediction(s) exact against the dynamic tape, \
       IS proven zero-node.\n"
      (List.length costs);
  not !violation

(* The predictions run the compiled kernels, so the source ROOT the
   other passes read is not consulted. *)
let check ~json ~gate _root =
  let world = World.load () in
  let costs = Driver.analyze world in
  let fits = Driver.fit_families world in
  let render = if json then Driver.render_json else Driver.render_text in
  (render costs fits, [], fun () -> (not gate) || run_gate costs)
