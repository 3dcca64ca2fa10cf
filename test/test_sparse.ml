(* Frontier (sparse) backward sweep: the engine's sweep — unbudgeted
   and budgeted — must be bitwise identical to the seed's dense
   descending scan ([Seed_tape], which shares no code with the engine),
   for any budget and job count.

   The "sparse" suite pins the engine down on random register-machine
   programs (harness shared with Test_segtape) plus the IS degenerate
   case (an integer-sorting kernel whose reverse tape records zero
   float nodes: the frontier is empty, every float mask all-false).

   The "sparse-gate" suite is the CI gate: across the full NPB suite,
   the unbudgeted jobs=1 masks equal the masks of a [Seed_tape]
   recording of the same window, and masks at jobs=4 (whose
   per-variable extraction runs on a pool) — unbudgeted and budgeted —
   are bitwise identical to them, with jobs-invariant visited-node
   counts. *)

open Scvad_ad
module Crit = Scvad_core.Criticality
module Analyzer = Scvad_core.Analyzer
module Npb = Scvad_npb

(* Leave two default-size slabs of garbage on top of this domain's slab
   pool: NaN partials and wrong parents that still precede their slot
   in any slab (so a recording that failed to overwrite a slot fails
   the comparison instead of indexing past its accumulator). *)
let dirty_pool () =
  let t = Tape.create () in
  let sn = Tape.slab_nodes t in
  for i = 0 to (2 * sn) - 1 do
    ignore (Tape.push2 t (i mod sn / 2) Float.nan (i mod sn / 3) Float.nan)
  done;
  Tape.release t

(* Unbudgeted engine run on 64-node slabs, or with [~pooled:true] on
   default-size slabs drawn from a dirtied pool; returns the output
   value, the per-node adjoint, and the sweep stats. *)
let run_dense ?(pooled = false) prog =
  let tape =
    if pooled then begin
      dirty_pool ();
      Tape.create ()
    end
    else Tape.create ~capacity_hint:64 ()
  in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let regs = Test_segtape.init_regs (Reverse.var tape) prog in
  let input_nodes = Array.sub regs 0 prog.Test_segtape.ninputs in
  Array.iter (Test_segtape.exec (module S) regs) prog.Test_segtape.segs;
  let out = Test_segtape.sum_regs (module S) regs input_nodes in
  let adj = Tape.backward tape ~output:(Reverse.node_id out) in
  (Reverse.value out, Tape.adjoint adj, Tape.last_sweep tape)

(* Budgeted engine run. *)
let run_seg ?capacity_hint ?snapshot_slots ~budget_nodes prog =
  let v, _, _, tape, adj =
    Test_segtape.run_segmented ?capacity_hint ?snapshot_slots ~budget_nodes
      prog
  in
  (v, adj, Tape.last_sweep tape)

(* ------------------------------------------------------------------ *)
(* Random programs: every frontier variant equals the dense sweep      *)
(* ------------------------------------------------------------------ *)

let prop_sparse_equals_dense =
  QCheck.Test.make ~count:150
    ~name:
      "frontier backward bitwise equals dense (any budget, snapshot slots)"
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
      let pv, pa, _ = run_dense ~pooled:true prog in
      check "unbudgeted on recycled slabs" pv pa;
      let sv, sadj, sstats =
        run_seg ~capacity_hint:16 ~snapshot_slots:slots ~budget_nodes:budget
          prog
      in
      check "segmented" sv sadj;
      List.iter
        (fun (what, stats) ->
          match stats with
          | Some st ->
              if st.Tape_intf.visited_nodes > st.Tape_intf.swept_nodes then
                QCheck.Test.fail_reportf "%s: visited %d > swept %d" what
                  st.Tape_intf.visited_nodes st.Tape_intf.swept_nodes
          | None -> QCheck.Test.fail_reportf "%s sweep recorded no stats" what)
        [ ("unbudgeted", s0); ("segmented", sstats) ];
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
   crash — unbudgeted and budgeted, sequential and pooled alike. *)
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
(* CI gate: full NPB suite, sparse and segmented vs dense, any jobs    *)
(* ------------------------------------------------------------------ *)

(* The seed-tape oracle for one app over the analyzer's default window
   (boundary 0 to [analysis_niter]): the kernel recorded with the
   engine's push rules on [Seed_tape], swept by its dense scan.
   Returns the node count and every float variable's mask. *)
let seed_masks (module A : Scvad_core.App.S) =
  (* Presized to the cost pass's exact prediction so the reference
     never doubles a large recording. *)
  let predicted = Scvad_cost.Predict.predict (module A) in
  let tape =
    Seed_tape.create ~capacity:predicted.Scvad_cost.Predict.p_total ()
  in
  let module S = Seed_reverse.Scalar_of (struct
    let tape = tape
  end) in
  let module I = A.Make (S) in
  let st = I.create () in
  let lifted =
    List.map
      (fun v ->
        (v, Scvad_core.Variable.lift_capture v (Seed_reverse.lift tape)))
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
   seed-tape oracle, and the report with per-variable extraction fanned
   over a 4-wide pool must match the jobs=1 report bitwise, including
   the visited-node count. *)
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

(* The segmented (budgeted) tape at jobs=1 and at jobs=4, where
   per-variable extraction runs in parallel: both must match the dense
   report. *)
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
