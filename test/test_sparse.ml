(* Frontier (sparse) backward sweep: the engine's sweep — unbudgeted,
   budgeted, and segment-parallel — must be bitwise identical to the
   seed's dense descending scan ([Seed_tape], which shares no code with
   the engine), for any budget and job count.

   The "sparse" suite pins the engine down on random register-machine
   programs (harness shared with Test_segtape) plus the IS degenerate
   case (an integer-sorting kernel whose reverse tape records zero
   float nodes: the frontier is empty, every float mask all-false).

   The "sparse-gate" suite is the CI gate: across the full NPB suite,
   the unbudgeted jobs=1 masks equal the masks of a [Seed_tape]
   recording of the same window, and masks from the frontier sweep at
   jobs=4 — and from the segment-parallel budgeted sweep — are bitwise
   identical to them, with jobs-invariant visited-node counts. *)

open Scvad_ad
module Crit = Scvad_core.Criticality
module Analyzer = Scvad_core.Analyzer
module Npb = Scvad_npb
module Pool = Scvad_par.Pool

let fan_of pool =
  { Tape_intf.fan_run = (fun f xs -> Pool.map pool f xs) }

(* Long-lived pools shared by all property cases (spawning domains per
   qcheck case would dominate the suite's runtime); joined at exit. *)
let pool_of jobs =
  lazy
    (let p = Pool.create ~jobs in
     at_exit (fun () -> Pool.shutdown p);
     p)

let pool1 = pool_of 1
let pool4 = pool_of 4

(* Unbudgeted engine run with an optional fan; returns the output
   value, the per-node adjoint, and the sweep stats. *)
let run_dense ?fan prog =
  let tape = Tape.create ~capacity_hint:64 () in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let regs = Test_segtape.init_regs (Reverse.var tape) prog in
  let input_nodes = Array.sub regs 0 prog.Test_segtape.ninputs in
  Array.iter (Test_segtape.exec (module S) regs) prog.Test_segtape.segs;
  let out = Test_segtape.sum_regs (module S) regs input_nodes in
  let adj = Tape.backward ?fan tape ~output:(Reverse.node_id out) in
  (Reverse.value out, Tape.adjoint adj, Tape.last_sweep tape)

(* Budgeted engine run with an optional fan. *)
let run_seg ?fan ?capacity_hint ?snapshot_slots ~budget_nodes prog =
  let v, _, _, tape, adj =
    Test_segtape.run_segmented ?fan ?capacity_hint ?snapshot_slots
      ~budget_nodes prog
  in
  (v, adj, Tape.last_sweep tape)

(* ------------------------------------------------------------------ *)
(* Random programs: every frontier variant equals the dense sweep      *)
(* ------------------------------------------------------------------ *)

let prop_sparse_equals_dense =
  QCheck.Test.make ~count:150
    ~name:
      "frontier backward bitwise equals dense (any jobs, schedule, budget)"
    (QCheck.make ~print:Test_segtape.setup_print Test_segtape.setup_gen)
    (fun (prog, budget, slots) ->
      let dv, _, total, dadj = Test_segtape.run_dense prog in
      let check what v adj =
        if not (Test_segtape.same_float dv v) then
          QCheck.Test.fail_reportf "%s output: %.17g <> dense %.17g" what v
            dv;
        for id = 0 to total - 1 do
          if not (Test_segtape.same_float (dadj id) (adj id)) then
            QCheck.Test.fail_reportf
              "%s adjoint of node %d: %.17g <> dense %.17g" what id (adj id)
              (dadj id)
        done
      in
      let v0, a0, s0 = run_dense prog in
      check "unbudgeted" v0 a0;
      let v1, a1, s1 = run_dense ~fan:(fan_of (Lazy.force pool1)) prog in
      check "unbudgeted fan jobs=1" v1 a1;
      let v4, a4, s4 = run_dense ~fan:(fan_of (Lazy.force pool4)) prog in
      check "unbudgeted fan jobs=4" v4 a4;
      (* Visited-node counts are jobs-invariant on the unbudgeted tape. *)
      (match (s0, s1, s4) with
      | Some d, Some x1, Some x4 ->
          if not (d = x1 && d = x4) then
            QCheck.Test.fail_reportf
              "sweep stats differ across jobs: (%d,%d) (%d,%d) (%d,%d)"
              d.Tape_intf.visited_nodes d.Tape_intf.swept_nodes
              x1.Tape_intf.visited_nodes x1.Tape_intf.swept_nodes
              x4.Tape_intf.visited_nodes x4.Tape_intf.swept_nodes
      | _ -> QCheck.Test.fail_reportf "an unbudgeted sweep recorded no stats");
      let sv, sadj, _ =
        run_seg ~capacity_hint:16 ~snapshot_slots:slots ~budget_nodes:budget
          prog
      in
      check "segmented" sv sadj;
      let pv, padj, pstats =
        run_seg
          ~fan:(fan_of (Lazy.force pool4))
          ~capacity_hint:16 ~snapshot_slots:slots ~budget_nodes:budget prog
      in
      check "segment-parallel jobs=4" pv padj;
      (match pstats with
      | Some st ->
          if st.Tape_intf.visited_nodes > st.Tape_intf.swept_nodes then
            QCheck.Test.fail_reportf "visited %d > swept %d"
              st.Tape_intf.visited_nodes st.Tape_intf.swept_nodes
      | None ->
          QCheck.Test.fail_reportf "segment-parallel sweep recorded no stats");
      true)

(* ------------------------------------------------------------------ *)
(* Sweep-stats surface                                                 *)
(* ------------------------------------------------------------------ *)

(* The dense analyzer report exposes what backward visited; the
   frontier never inspects more than the sweep range. *)
let test_sweep_profile () =
  let d = Analyzer.run (module Npb.Cg.App) in
  match d.Crit.sweep_profile with
  | None -> Alcotest.fail "cg dense report has no sweep profile"
  | Some w ->
      Alcotest.(check bool) "visited > 0" true (w.Crit.w_visited_nodes > 0);
      Alcotest.(check bool)
        "visited <= swept" true
        (w.Crit.w_visited_nodes <= w.Crit.w_swept_nodes);
      Alcotest.(check bool)
        "active fraction in (0, 1]" true
        (w.Crit.w_active_fraction > 0. && w.Crit.w_active_fraction <= 1.)

(* ------------------------------------------------------------------ *)
(* IS: the degenerate all-zero frontier                                *)
(* ------------------------------------------------------------------ *)

(* IS is integer sorting: its reverse tape records zero float nodes, so
   no backward sweep ever runs and the frontier machinery must cope
   with the empty case — all-false float masks, no sweep profile, no
   crash — through the sequential, pooled, and segment-parallel
   paths alike. *)
let test_is_degenerate () =
  let d = Analyzer.run (module Npb.Is.App) in
  Alcotest.(check int) "is records no float nodes" 0 d.Crit.tape_nodes;
  Alcotest.(check bool) "no sweep profile" true (d.Crit.sweep_profile = None);
  List.iter
    (fun (v : Crit.var_report) ->
      match v.Crit.kind with
      | Crit.Float_var ->
          Alcotest.(check bool)
            (Printf.sprintf "is.%s: all-false float mask" v.Crit.name)
            true
            (Array.for_all (fun b -> not b) v.Crit.mask)
      | Crit.Int_var -> ())
    d.Crit.vars;
  let p4 =
    Analyzer.run
      ~config:Analyzer.Config.(default |> with_jobs 4)
      (module Npb.Is.App)
  in
  Test_budget.check_identical "is jobs=4" d p4;
  let s4 =
    Analyzer.run
      ~config:
        Analyzer.Config.(default |> with_memory_budget 1 |> with_jobs 4)
      (module Npb.Is.App)
  in
  Test_budget.check_identical "is segmented jobs=4" d s4;
  Alcotest.(check bool)
    "segmented is: no sweep profile" true
    (s4.Crit.sweep_profile = None)

(* ------------------------------------------------------------------ *)
(* CI gate: full NPB suite, sparse and segment-parallel vs dense       *)
(* ------------------------------------------------------------------ *)

(* The seed-tape oracle for one app over the analyzer's default window
   (boundary 0 to [analysis_niter]): the kernel recorded with the
   engine's push rules on [Seed_tape], swept by its dense scan.
   Returns the node count and every float variable's mask. *)
let seed_masks (module A : Scvad_core.App.S) =
  (* Presized past the hint (within 10% of the true count) so the
     reference never doubles a large recording. *)
  let tape = Seed_tape.create ~capacity:(A.tape_nodes_hint / 10 * 11) () in
  let module R = Reverse.Record (Seed_tape) in
  let module S = R.Scalar_of (struct
    let tape = tape
  end) in
  let module I = A.Make (S) in
  let st = I.create () in
  let lifted =
    List.map
      (fun v -> (v, Scvad_core.Variable.lift_capture v (R.lift tape)))
      (I.float_vars st)
  in
  I.run st ~from:0 ~until:A.analysis_niter;
  let out = I.output st in
  let grad =
    if Reverse.is_const out then fun _ -> 0.
    else
      let adj = Seed_tape.backward tape ~output:(Reverse.node_id out) in
      fun x -> Seed_tape.adjoint adj (Reverse.node_id x)
  in
  ( Seed_tape.length tape,
    List.map
      (fun ((v : S.t Scvad_core.Variable.t), snapshot) ->
        ( v.Scvad_core.Variable.name,
          fst
            (Scvad_core.Variable.mask_and_magnitudes_of_snapshot v snapshot
               grad) ))
      lifted )

(* Per app (one tape live at a time): the jobs=1 report must match the
   seed-tape oracle, and the report with the backward sweep fanned over
   a 4-wide pool must match the jobs=1 report bitwise, including the
   visited-node count. *)
let gate_dense (module A : Scvad_core.App.S) () =
  let nodes, masks = seed_masks (module A) in
  Gc.full_major ();
  let d = Analyzer.run (module A) in
  Alcotest.(check int) (A.name ^ ": tape nodes = seed tape") nodes
    d.Crit.tape_nodes;
  List.iter
    (fun (name, mask) ->
      Alcotest.(check bool)
        (A.name ^ "." ^ name ^ ": mask = seed tape")
        true
        ((Crit.find d name).Crit.mask = mask))
    masks;
  let p =
    Analyzer.run ~config:Analyzer.Config.(default |> with_jobs 4) (module A)
  in
  Test_budget.check_identical (A.name ^ ": jobs=4 vs jobs=1") d p;
  Alcotest.(check bool)
    (A.name ^ ": sweep stats jobs-invariant")
    true
    (d.Crit.sweep_profile = p.Crit.sweep_profile)

let gate_segmented name (module A : Scvad_core.App.S) () =
  let d = Analyzer.run (module A) in
  let budget = max 1 (d.Crit.tape_nodes / 4) in
  let seg j =
    Analyzer.run
      ~config:
        Analyzer.Config.(default |> with_memory_budget budget |> with_jobs j)
      (module A)
  in
  let s1 = seg 1 and s4 = seg 4 in
  Test_budget.check_identical (name ^ ": segmented jobs=1 vs dense") d s1;
  Test_budget.check_identical (name ^ ": segmented jobs=4 vs dense") d s4;
  Alcotest.(check bool)
    (name ^ ": segmented sweep stats jobs-invariant")
    true
    (s1.Crit.sweep_profile = s4.Crit.sweep_profile)

let gate_tests =
  List.map
    (fun ((module A : Scvad_core.App.S) as app) ->
      Alcotest.test_case
        (A.name ^ ": dense masks, jobs=4 vs jobs=1")
        `Quick (gate_dense app))
    Npb.Suite.all
  @ [
      Alcotest.test_case "cg: segment-parallel masks vs dense" `Quick
        (gate_segmented "cg" (module Npb.Cg.App));
      Alcotest.test_case "ft class S: segment-parallel masks vs dense" `Slow
        (fun () ->
          Gc.full_major ();
          gate_segmented "ft" (module Npb.Ft.App) ();
          Gc.full_major ());
    ]

let suites =
  [
    ( "sparse",
      [
        QCheck_alcotest.to_alcotest prop_sparse_equals_dense;
        Alcotest.test_case "cg: dense report exposes sweep profile" `Quick
          test_sweep_profile;
        Alcotest.test_case "is: empty frontier, all paths" `Quick
          test_is_degenerate;
      ] );
    ("sparse-gate", gate_tests);
  ]
