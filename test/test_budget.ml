(* Memory-budgeted (segmented) reverse analysis vs the dense tape.

   The checkpointing premise the whole tool rests on — restoring the
   checkpoint variables at a boundary and re-running reproduces the
   continuation bitwise — is exactly what makes segment replay
   deterministic, so a segmented analysis at ANY budget must produce
   the same report as the dense one: same criticality masks, same
   regions, same recorded node count.  These tests pin that down on
   real NPB kernels, and the FT case doubles as the acceptance check:
   class-S FT under a budget of a quarter of its dense tape must stay
   within budget, replay, and still match bitwise. *)

module Crit = Scvad_core.Criticality
module Analyzer = Scvad_core.Analyzer
module Npb = Scvad_npb

let dense (module A : Scvad_core.App.S) = Analyzer.run (module A)

let segmented ?niter ~budget (module A : Scvad_core.App.S) =
  let config = Analyzer.Config.(default |> with_memory_budget budget) in
  Analyzer.run
    ~config:{ config with Analyzer.Config.niter }
    (module A)

(* Bitwise-identical analysis: every var report (name, shape, kind,
   mask, regions) and the recorded node count.  [tape_nodes] of the
   segmented report counts recording pushes only — replays re-push the
   same slots and are tallied separately in the profile. *)
let check_identical name (d : Crit.report) (s : Crit.report) =
  Alcotest.(check int)
    (name ^ ": recorded tape nodes")
    d.Crit.tape_nodes s.Crit.tape_nodes;
  Alcotest.(check int)
    (name ^ ": var count")
    (List.length d.Crit.vars) (List.length s.Crit.vars);
  List.iter2
    (fun (dv : Crit.var_report) (sv : Crit.var_report) ->
      Alcotest.(check string) (name ^ ": var name") dv.Crit.name sv.Crit.name;
      Alcotest.(check bool)
        (name ^ "." ^ dv.Crit.name ^ ": mask bitwise")
        true
        (dv.Crit.mask = sv.Crit.mask);
      Alcotest.(check bool)
        (name ^ "." ^ dv.Crit.name ^ ": regions")
        true
        (dv.Crit.regions = sv.Crit.regions))
    d.Crit.vars s.Crit.vars

let profile name (s : Crit.report) =
  match s.Crit.tape_profile with
  | Some p -> p
  | None -> Alcotest.failf "%s: segmented run reported no tape profile" name

(* Dense runs report no profile; segmented runs always do. *)
let test_profile_presence () =
  let d = dense (module Npb.Cg.App) in
  Alcotest.(check bool) "dense has no profile" true (d.Crit.tape_profile = None);
  let s = segmented ~budget:(max 1 (d.Crit.tape_nodes / 4)) (module Npb.Cg.App) in
  ignore (profile "cg" s)

let quarter_budget_matches name (module A : Scvad_core.App.S) () =
  let d = dense (module A) in
  let budget = max 1 (d.Crit.tape_nodes / 4) in
  let s = segmented ~budget (module A) in
  check_identical name d s;
  let p = profile name s in
  Alcotest.(check int) (name ^ ": budget echoed") budget p.Crit.t_budget_nodes;
  Alcotest.(check bool)
    (name ^ ": peak live within budget")
    true
    (p.Crit.t_peak_live_nodes <= budget);
  Alcotest.(check bool)
    (name ^ ": replay happened under quarter budget")
    true (p.Crit.t_replays > 0)

let test_cg_quarter = quarter_budget_matches "cg" (module Npb.Cg.App)
let test_lu_quarter = quarter_budget_matches "lu" (module Npb.Lu.App)

(* IS is integer sorting: its reverse tape records zero float nodes.
   The budget clamps to the one-slab minimum and there is nothing to
   replay — the report must still match the dense one exactly. *)
let test_is_degenerate () =
  let d = dense (module Npb.Is.App) in
  Alcotest.(check int) "is records no float nodes" 0 d.Crit.tape_nodes;
  let s = segmented ~budget:1 (module Npb.Is.App) in
  check_identical "is" d s;
  Alcotest.(check int)
    "nothing to replay" 0
    (profile "is" s).Crit.t_replays

(* Acceptance: FT class S (the paper's headline kernel — one pass
   records ~tens of millions of nodes) under a quarter budget. *)
let test_ft_quarter () =
  Gc.full_major ();
  quarter_budget_matches "ft" (module Npb.Ft.App) ();
  Gc.full_major ()

(* The binomial schedule reproduces the dense report. *)
let test_schedules_agree () =
  let d = dense (module Npb.Cg.App) in
  let budget = max 1 (d.Crit.tape_nodes / 4) in
  check_identical "cg/binomial" d (segmented ~budget (module Npb.Cg.App))

(* Nodes recorded before the first boundary snapshot — the lifted
   checkpoint state — cannot be discarded, so a budget below them is
   refused at the push that would exceed it, never silently overrun.
   cg-tiny lifts 62 nodes: a 40-node budget (two 16-node slabs) is
   refused, a 64-node one (four slabs) holds them and still matches the
   dense report within budget. *)
let test_budget_below_lift () =
  let app = (module Npb.Cg.Tiny_app : Scvad_core.App.S) in
  (match segmented ~niter:4 ~budget:40 app with
  | _ -> Alcotest.fail "a 40-node budget ran below the 62 lifted nodes"
  | exception
      Scvad_ad.Tape_intf.Budget_too_small { budget_nodes; needed_nodes } ->
      Alcotest.(check int) "slab-rounded budget" 32 budget_nodes;
      Alcotest.(check int) "push that found no room" 33 needed_nodes);
  let d =
    Analyzer.run ~config:Analyzer.Config.(default |> with_niter 4) app
  in
  let s = segmented ~niter:4 ~budget:64 app in
  check_identical "cg-tiny/64" d s;
  Alcotest.(check bool)
    "peak live within budget" true
    ((profile "cg-tiny/64" s).Crit.t_peak_live_nodes <= 64)

(* A budget at or above the dense size needs no replays at all. *)
let test_ample_budget_no_replay () =
  let d = dense (module Npb.Cg.App) in
  let s = segmented ~budget:(d.Crit.tape_nodes * 2) (module Npb.Cg.App) in
  check_identical "cg/ample" d s;
  Alcotest.(check int)
    "no replay with ample budget" 0
    (profile "cg/ample" s).Crit.t_replays

let suites =
  [
    ( "budget",
      [
        Alcotest.test_case "profile present iff budgeted" `Quick
          test_profile_presence;
        Alcotest.test_case "cg: quarter budget, bitwise-identical" `Quick
          test_cg_quarter;
        Alcotest.test_case "is: zero-activity tape under budget" `Quick
          test_is_degenerate;
        Alcotest.test_case "lu: quarter budget, bitwise-identical" `Quick
          test_lu_quarter;
        Alcotest.test_case "ft class S: quarter budget, bitwise-identical"
          `Slow test_ft_quarter;
        Alcotest.test_case "schedules agree with dense" `Quick
          test_schedules_agree;
        Alcotest.test_case "ample budget never replays" `Quick
          test_ample_budget_no_replay;
        Alcotest.test_case "budget below the lifted state is refused" `Quick
          test_budget_below_lift;
      ] );
  ]
