(* Tests for the impact analysis and mixed-precision checkpointing
   extension (paper §VII future work). *)

open Scvad_core
module Npb = Scvad_npb

(* ------------------------------------------------------------------ *)
(* Impact analysis                                                     *)
(* ------------------------------------------------------------------ *)

let test_impact_generalizes_criticality () =
  (* magnitude != 0 must coincide with the criticality mask. *)
  List.iter
    (fun name ->
      let (module A : App.S) = Option.get (Npb.Suite.find name) in
      let crit = Analyzer.run (module A) in
      let imp = Analyzer.analyze_impact (module A) in
      List.iter
        (fun (vi : Impact.var_impact) ->
          let c = Criticality.find crit vi.Impact.name in
          Alcotest.(check (array bool))
            (Printf.sprintf "%s(%s)" name vi.Impact.name)
            c.Criticality.mask
            (Impact.to_criticality_mask vi))
        imp.Impact.vars)
    [ "bt"; "cg"; "mg" ]

let test_impact_stats () =
  let imp = Analyzer.analyze_impact (module Npb.Cg.App) in
  (* A second analysis in the same process records onto the first one's
     recycled slabs and must not differ in a single byte. *)
  Alcotest.(check string) "second impact analysis byte-identical"
    (Marshal.to_string imp [])
    (Marshal.to_string (Analyzer.analyze_impact (module Npb.Cg.App)) []);
  let report () = Marshal.to_string (Analyzer.run (module Npb.Cg.App)) [] in
  Alcotest.(check string) "second report byte-identical" (report ()) (report ());
  let x = Impact.find imp "x" in
  Alcotest.(check bool) "max positive" true (Impact.max_magnitude x > 0.);
  Alcotest.(check bool) "min nonzero <= max" true
    (Impact.min_nonzero x <= Impact.max_magnitude x);
  let p10 = Impact.percentile x ~p:10. in
  let p90 = Impact.percentile x ~p:90. in
  Alcotest.(check bool) "percentiles ordered" true (p10 <= p90);
  let hist = Impact.log_histogram x in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 hist in
  Alcotest.(check int) "histogram covers nonzero elements" 1400 total

let test_impact_classify () =
  let vi =
    Impact.of_magnitudes ~name:"v"
      ~shape:(Scvad_nd.Shape.create [ 5 ])
      ~spe:1
      [| 0.; 1e-9; 1e-3; 5.; 0.1 |]
  in
  let classes = Impact.classify vi ~threshold:0.1 in
  Alcotest.(check bool) "uncritical" true (classes.(0) = Impact.Uncritical);
  Alcotest.(check bool) "low" true (classes.(1) = Impact.Low_impact);
  Alcotest.(check bool) "low 2" true (classes.(2) = Impact.Low_impact);
  Alcotest.(check bool) "high" true (classes.(3) = Impact.High_impact);
  Alcotest.(check bool) "boundary is high" true
    (classes.(4) = Impact.High_impact);
  let u, l, h = Impact.class_counts classes in
  Alcotest.(check (list int)) "counts" [ 1; 2; 2 ] [ u; l; h ]

(* ------------------------------------------------------------------ *)
(* F32 payload roundtrip                                               *)
(* ------------------------------------------------------------------ *)

let test_f32_section_roundtrip () =
  let values = [| 1.0; Float.pi; -2.5e-7; 1e30 |] in
  let s =
    {
      Scvad_checkpoint.Ckpt_format.name = "v";
      dims = [| 4 |];
      spe = 1;
      regions = None;
      payload = Scvad_checkpoint.Ckpt_format.F32 values;
    }
  in
  let file =
    { Scvad_checkpoint.Ckpt_format.app = "t"; iteration = 0; sections = [ s ] }
  in
  Alcotest.(check int) "f32 payload bytes" 16
    (Scvad_checkpoint.Ckpt_format.payload_bytes s);
  let file' =
    Scvad_checkpoint.Ckpt_format.decode
      (Scvad_checkpoint.Ckpt_format.encode file)
  in
  match (List.hd file'.Scvad_checkpoint.Ckpt_format.sections).payload with
  | Scvad_checkpoint.Ckpt_format.F32 got ->
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "value %d survives as f32" i)
            (Scvad_core.Mixed.to_f32 values.(i))
            v)
        got
  | _ -> Alcotest.fail "wrong payload kind"

(* ------------------------------------------------------------------ *)
(* Mixed-precision snapshot / restore                                  *)
(* ------------------------------------------------------------------ *)

let test_mixed_plan_partition () =
  let imp = Analyzer.analyze_impact (module Npb.Cg.App) in
  let x = Impact.find imp "x" in
  let threshold = Impact.percentile x ~p:50. in
  let plan = Mixed.plan_of_impact ~threshold x in
  let module R = Scvad_checkpoint.Regions in
  (* high + low + uncritical partitions the variable *)
  Alcotest.(check int) "partition" 1402
    (R.cardinal plan.Mixed.high + R.cardinal plan.Mixed.low + 2);
  (* disjoint *)
  for i = 0 to 1401 do
    if R.mem plan.Mixed.high i && R.mem plan.Mixed.low i then
      Alcotest.failf "element %d in both classes" i
  done

let test_mixed_experiment_cg () =
  let e = Mixed.experiment ~at_iter:1 ~niter:4 ~threshold:1e-3 (module Npb.Cg.App) in
  Alcotest.(check bool) "storage shrinks" true
    (e.Mixed.mixed_bytes < e.Mixed.full_bytes);
  Alcotest.(check int) "uncritical dropped" 2 e.Mixed.dropped_elements;
  (* measured error within the first-order bound (plus float slack) *)
  Alcotest.(check bool) "error within predicted bound" true
    (e.Mixed.abs_error <= e.Mixed.predicted_error +. 1e-12)

let test_mixed_experiment_ep () =
  (* EP accumulates: the f32 rounding of sx/sy persists to the output
     untouched, so the measured error is nonzero and the first-order
     prediction is nearly exact. *)
  let e = Mixed.experiment ~at_iter:2 ~niter:6 ~threshold:infinity (module Npb.Ep.App) in
  Alcotest.(check bool) "nonzero measured error" true (e.Mixed.abs_error > 0.);
  Alcotest.(check bool) "within bound" true
    (e.Mixed.abs_error <= e.Mixed.predicted_error *. (1. +. 1e-6) +. 1e-15);
  Alcotest.(check bool) "prediction tight for accumulators" true
    (e.Mixed.abs_error >= 0.2 *. e.Mixed.predicted_error)

let test_mixed_threshold_zero_is_lossless () =
  let e = Mixed.experiment ~at_iter:1 ~niter:4 ~threshold:0. (module Npb.Cg.App) in
  Alcotest.(check int) "no low-impact class at threshold 0" 0
    e.Mixed.low_elements;
  Alcotest.(check (float 0.)) "bitwise equal" 0. e.Mixed.abs_error

let test_mixed_restore_roundtrip () =
  (* Snapshot and restore the quickstart-style demo app by hand. *)
  let (module A : App.S) = (module Npb.Cg.Tiny_app) in
  let imp = Analyzer.analyze_impact (module A) in
  let plans = Mixed.plans_of_report ~threshold:infinity imp in
  let module I = A.Make (Scvad_ad.Float_scalar) in
  let st = I.create () in
  I.run st ~from:0 ~until:2;
  let file =
    Mixed.snapshot ~plans ~app:A.name ~iteration:2
      ~float_vars:(I.float_vars st) ~int_vars:(I.int_vars st) ()
  in
  let st2 = I.create () in
  let from =
    Mixed.restore file ~float_vars:(I.float_vars st2) ~int_vars:(I.int_vars st2)
  in
  Alcotest.(check int) "iteration restored" 2 from;
  (* Critical values must round-trip through f32 exactly. *)
  let v1 = List.hd (I.float_vars st) and v2 = List.hd (I.float_vars st2) in
  for e = 1 to 60 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "x[%d] restored as f32" e)
      (Mixed.to_f32 (Variable.read_element v1 e).(0))
      (Variable.read_element v2 e).(0)
  done;
  (* Uncritical slots are poisoned. *)
  Alcotest.(check bool) "x[0] poisoned" true (Float.is_nan (Variable.read_element v2 0).(0))

let suites =
  [ ( "mixed.impact",
      [ Alcotest.test_case "impact generalizes criticality" `Slow
          test_impact_generalizes_criticality;
        Alcotest.test_case "statistics" `Quick test_impact_stats;
        Alcotest.test_case "classification" `Quick test_impact_classify ] );
    ( "mixed.format",
      [ Alcotest.test_case "f32 roundtrip" `Quick test_f32_section_roundtrip ] );
    ( "mixed.checkpoint",
      [ Alcotest.test_case "plan partitions" `Quick test_mixed_plan_partition;
        Alcotest.test_case "experiment on CG" `Quick test_mixed_experiment_cg;
        Alcotest.test_case "experiment on EP (accumulator)" `Quick
          test_mixed_experiment_ep;
        Alcotest.test_case "threshold 0 lossless" `Quick
          test_mixed_threshold_zero_is_lossless;
        Alcotest.test_case "restore roundtrip + poison" `Quick
          test_mixed_restore_roundtrip ] ) ]
