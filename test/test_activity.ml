(* Static activity analysis tests: the golden verdict table for the
   eight NPB kernels, the soundness property the @activity-check gate
   enforces (statically-inactive ⇒ dynamically uncritical, at random
   checkpoint windows), the analyzer fast path, and pragma handling on
   a synthetic kernel. *)

open Scvad_core
module Activity = Scvad_activity
module Verdict = Activity.Verdict
module Driver = Activity.Driver
module Finding = Scvad_lint.Finding

let npb_dir () =
  match Driver.locate_npb_dir () with
  | Some d -> d
  | None -> Alcotest.fail "lib/npb not found above the test cwd"

(* One static pass for the whole suite. *)
let verdicts_cache = ref None

let verdicts () =
  match !verdicts_cache with
  | Some v -> v
  | None ->
      let v = Driver.analyze_dir (npb_dir ()) in
      verdicts_cache := Some v;
      v

(* The analyzer's skip list: every app's statically-inactive floats. *)
let skip_of vs =
  List.map
    (fun (av : Verdict.app_verdicts) ->
      (av.Verdict.app, Verdict.skippable_float_vars av))
    vs

(* ------------------------------------------------------------------ *)
(* Golden verdict table                                                *)
(* ------------------------------------------------------------------ *)

(* (app, var, class, inactive elements).  The two nonzero inactive
   counts are the pass's substantive claims: EP's whole regenerated
   scratch buffer and FT's padding plane (the paper's Fig. 8). *)
let golden =
  [
    ("bt", "u", "statically-active", 0);
    ("bt", "step", "statically-active", 0);
    ("cg", "x", "statically-active", 0);
    ("cg", "it", "statically-active", 0);
    ("ep", "sx", "statically-active", 0);
    ("ep", "sy", "statically-active", 0);
    ("ep", "q", "statically-active", 0);
    ("ep", "buffer", "statically-inactive", 131072);
    ("ep", "k", "statically-active", 0);
    ("ft", "y", "statically-active", 4096);
    ("ft", "sums", "statically-active", 0);
    ("ft", "kt", "statically-active", 0);
    ("is", "passed_verification", "statically-active", 0);
    ("is", "key_array", "statically-active", 0);
    ("is", "bucket_ptrs", "statically-active", 0);
    ("is", "iteration", "statically-active", 0);
    ("lu", "u", "statically-active", 0);
    ("lu", "rho_i", "statically-active", 0);
    ("lu", "qs", "statically-active", 0);
    ("lu", "rsd", "statically-active", 0);
    ("lu", "istep", "statically-active", 0);
    ("mg", "u", "statically-active", 0);
    ("mg", "r", "statically-active", 0);
    ("mg", "it", "statically-active", 0);
    ("sp", "u", "statically-active", 0);
    ("sp", "step", "statically-active", 0);
  ]

let test_golden_table () =
  let vs, findings = verdicts () in
  List.iter
    (fun (f : Finding.t) ->
      if f.Finding.severity = Finding.Error then
        Alcotest.failf "unexpected error finding: %s" (Finding.to_text f))
    findings;
  Alcotest.(check int) "eight apps" 8 (List.length vs);
  List.iter
    (fun (a : Verdict.app_verdicts) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s resolved" a.Verdict.app)
        true a.Verdict.resolved)
    vs;
  List.iter
    (fun (app, var, cls, inactive) ->
      match Verdict.find vs ~app ~var with
      | None -> Alcotest.failf "no verdict for %s.%s" app var
      | Some v ->
          Alcotest.(check string)
            (Printf.sprintf "%s.%s class" app var)
            cls
            (Verdict.class_name v.Verdict.class_);
          Alcotest.(check int)
            (Printf.sprintf "%s.%s inactive elements" app var)
            inactive
            (Verdict.inactive_elements v))
    golden;
  (* And nothing beyond the table: every verdict is in golden. *)
  List.iter
    (fun (a : Verdict.app_verdicts) ->
      List.iter
        (fun (v : Verdict.var_verdict) ->
          if
            not
              (List.exists
                 (fun (app, var, _, _) ->
                   app = a.Verdict.app && var = v.Verdict.var)
                 golden)
          then Alcotest.failf "unexpected verdict %s.%s" a.Verdict.app
              v.Verdict.var)
        a.Verdict.vars)
    vs

(* ------------------------------------------------------------------ *)
(* FT refinement shape: exactly the padding plane x = 64               *)
(* ------------------------------------------------------------------ *)

let test_ft_refinement_is_padding_plane () =
  let vs, _ = verdicts () in
  match Verdict.find vs ~app:"ft" ~var:"y" with
  | None -> Alcotest.fail "no ft.y verdict"
  | Some v ->
      let xpad = 65 in
      Scvad_checkpoint.Regions.iter_elements v.Verdict.inactive (fun e ->
          Alcotest.(check int)
            (Printf.sprintf "element %d is on the padding plane" e)
            (xpad - 1) (e mod xpad))

(* ------------------------------------------------------------------ *)
(* The gate property, as a qcheck: Statically_inactive ⇒ dynamically   *)
(* uncritical at random checkpoint windows                             *)
(* ------------------------------------------------------------------ *)

let ep_app () =
  match Scvad_npb.Suite.find "ep" with
  | Some a -> a
  | None -> Alcotest.fail "no ep app"

let prop_ep_buffer_uncritical =
  QCheck.Test.make ~count:6 ~name:"EP buffer uncritical at random windows"
    QCheck.(pair (int_bound 6) (int_range 1 2))
    (fun (at_iter, window) ->
      let (module A) = ep_app () in
      let niter = at_iter + window in
      let r =
        Analyzer.run
          ~config:
            Analyzer.Config.(default |> with_at_iter at_iter |> with_niter niter)
          (module A)
      in
      let buffer = Criticality.find r "buffer" in
      (* The static claim must hold at every boundary, not just the
         default analysis window. *)
      Criticality.critical buffer = 0)

let prop_ep_fast_path_equal =
  QCheck.Test.make ~count:4 ~name:"EP fast path: identical masks"
    QCheck.(int_bound 6)
    (fun at_iter ->
      let (module A) = ep_app () in
      let vs, _ = verdicts () in
      let niter = at_iter + 1 in
      let cfg =
        Analyzer.Config.(default |> with_at_iter at_iter |> with_niter niter)
      in
      let full = Analyzer.run ~config:cfg (module A) in
      let fast =
        Analyzer.run ~config:(Analyzer.Config.with_skip (skip_of vs) cfg)
          (module A)
      in
      List.for_all
        (fun (v : Criticality.var_report) ->
          (Criticality.find fast v.Criticality.name).Criticality.mask
          = v.Criticality.mask)
        full.Criticality.vars)

(* ------------------------------------------------------------------ *)
(* Fast path: tape-node reduction is exactly the skipped lift          *)
(* ------------------------------------------------------------------ *)

let test_fast_path_tape_reduction () =
  let vs, _ = verdicts () in
  let (module A) = ep_app () in
  let full = Analyzer.run (module A) in
  let fast =
    Analyzer.run
      ~config:Analyzer.Config.(default |> with_skip (skip_of vs))
      (module A)
  in
  (* buffer has 2*2^16 elements; skipping its lift removes exactly that
     many variable nodes from the tape. *)
  Alcotest.(check int) "tape nodes saved" 131072
    (full.Criticality.tape_nodes - fast.Criticality.tape_nodes);
  let buffer = Criticality.find fast "buffer" in
  Alcotest.(check int) "skipped buffer reported uncritical" 0
    (Criticality.critical buffer)

(* ------------------------------------------------------------------ *)
(* unsound_claims: the gate's contradiction detector                   *)
(* ------------------------------------------------------------------ *)

let test_unsound_claims () =
  let av =
    {
      Verdict.app = "toy";
      source = "toy.ml";
      resolved = true;
      notes = [];
      vars =
        [
          {
            Verdict.var = "a";
            kind = Verdict.Float_var;
            class_ = Verdict.Statically_inactive;
            elements = Some 4;
            inactive = [ { Scvad_checkpoint.Regions.start = 0; stop = 4 } ];
            reason = "test";
            assumed = false;
          };
          {
            Verdict.var = "b";
            kind = Verdict.Float_var;
            class_ = Verdict.Statically_active;
            elements = Some 4;
            inactive = [ { Scvad_checkpoint.Regions.start = 2; stop = 4 } ];
            reason = "test";
            assumed = false;
          };
        ];
    }
  in
  (* Sound masks: nothing critical inside any claim. *)
  let sound =
    [ ("a", Array.make 4 false); ("b", [| true; true; false; false |]) ]
  in
  Alcotest.(check int) "sound masks: no violations" 0
    (List.length (Driver.unsound_claims av ~masks:sound));
  (* a.2 critical contradicts the whole-variable claim; b.3 critical
     contradicts the refinement span. *)
  let unsound =
    [
      ("a", [| false; false; true; false |]);
      ("b", [| true; true; false; true |]);
    ]
  in
  let bad = Driver.unsound_claims av ~masks:unsound in
  Alcotest.(check int) "two offending variables" 2 (List.length bad);
  (match List.assoc_opt "a" bad with
  | Some (n, samples) ->
      Alcotest.(check int) "a: one contradiction" 1 n;
      Alcotest.(check (list int)) "a: element 2" [ 2 ] samples
  | None -> Alcotest.fail "a not reported");
  match List.assoc_opt "b" bad with
  | Some (n, samples) ->
      Alcotest.(check int) "b: one contradiction" 1 n;
      Alcotest.(check (list int)) "b: element 3" [ 3 ] samples
  | None -> Alcotest.fail "b not reported"

(* ------------------------------------------------------------------ *)
(* Pragmas, on a synthetic kernel                                      *)
(* ------------------------------------------------------------------ *)

let toy_source ~pragma =
  Printf.sprintf
    {|
let n = 4

module Make_generic (S : Scvad_ad.Scalar.S) = struct
  type state = {
    mutable acc : S.t;
    scratch : S.t array;
    mutable iter_done : int;
  }

  let create () =
    { acc = S.zero; scratch = Array.make n S.zero; iter_done = 0 }

  let run st ~from ~until =
    for _ = from to until - 1 do
      Array.fill st.scratch 0 n (S.of_float 1.);
      for i = 0 to n - 1 do
        st.acc <- S.(st.acc +. st.scratch.(i))
      done;
      st.iter_done <- st.iter_done + 1
    done

  let output st = st.acc

  let float_vars st =
    let open Scvad_core.Variable in
    [ make ~name:"acc" ~shape:Scvad_nd.Shape.scalar ~spe:1 ~fill:S.zero
        ~read:(fun lo hi dst off -> if lo < hi then dst.(off) <- st.acc)
        ~write:(fun lo hi src off -> if lo < hi then st.acc <- src.(off))
        ();
      %s
      of_array ~name:"scratch" (Scvad_nd.Shape.create [ n ]) st.scratch ]
end

module App = struct
  let name = "toy"
end
|}
    pragma

let analyze_toy ~pragma =
  Driver.analyze_source ~file:"toy.ml" (toy_source ~pragma)

let toy_verdict ~pragma var =
  match analyze_toy ~pragma with
  | None, _ -> Alcotest.fail "toy kernel not recognized as an app"
  | Some av, findings -> (
      match Verdict.find_var av ~var with
      | Some v -> (v, findings)
      | None -> Alcotest.failf "no verdict for toy.%s" var)

let test_toy_kill_is_inactive () =
  let v, findings = toy_verdict ~pragma:"" "scratch" in
  Alcotest.(check string) "scratch class" "statically-inactive"
    (Verdict.class_name v.Verdict.class_);
  Alcotest.(check int) "whole variable" 4 (Verdict.inactive_elements v);
  Alcotest.(check bool) "not assumed" false v.Verdict.assumed;
  Alcotest.(check int) "no findings" 0 (List.length findings)

let test_toy_pragma_overrides () =
  (* An assume-pragma on the declaration line forces the class and is
     flagged as an assumption. *)
  let v, findings =
    toy_verdict
      ~pragma:
        "(* activity: assume active scratch -- exercised by restart paths \
         the model misses *)"
      "scratch"
  in
  Alcotest.(check string) "overridden class" "statically-active"
    (Verdict.class_name v.Verdict.class_);
  Alcotest.(check bool) "marked assumed" true v.Verdict.assumed;
  Alcotest.(check int) "pragma consumed: no findings" 0
    (List.length findings)

let test_toy_pragma_needs_reason () =
  let _, findings =
    toy_verdict ~pragma:"(* activity: assume active scratch *)" "scratch"
  in
  match findings with
  | [ f ] ->
      Alcotest.(check string) "error severity" "error"
        (Finding.severity_name f.Finding.severity)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_toy_unused_pragma_warns () =
  let _, findings =
    toy_verdict
      ~pragma:
        "(* activity: assume inactive nonexistent -- covers no declaration \
         *)"
      "scratch"
  in
  match findings with
  | [ f ] ->
      Alcotest.(check string) "warning severity" "warning"
        (Finding.severity_name f.Finding.severity)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* ---- loop convergence in the walk ---------------------------------- *)

(* A kernel whose [run] is [body]: an array field [src], three scalar
   fields [p], [q], [r] and the output sum of the three. *)
let loop_source body =
  Printf.sprintf
    {|
module Make_generic (S : Scvad_ad.Scalar.S) = struct
  type state = {
    src : S.t array;
    mutable p : S.t;
    mutable q : S.t;
    mutable r : S.t;
    mutable iter_done : int;
  }

  let run st ~from ~until =
    %s

  let output st = S.(st.p +. st.q +. st.r)
end

module App = struct
  let name = "loops"
end
|}
    body

let walk body =
  let file = "loops.ml" in
  match Scvad_lint.Source.parse ~file (loop_source body) with
  | Error _ -> Alcotest.fail "synthetic kernel does not parse"
  | Ok ast -> Activity.Absint.analyze (Activity.Model.of_structure ~file ast)

let edge_sources (o : Activity.Absint.outcome) dst =
  match List.assoc_opt dst o.Activity.Absint.o_edges with
  | Some srcs -> Activity.Absint.SS.elements srcs
  | None -> []

(* The field's taint moves one ref per pass: [a] holds it after the
   first pass, [b] after the second, [c] only after the third.  A loop
   that stopped at a pass recording no new fact, without counting the
   cells it moved, would leave [c] clean. *)
let test_ref_chain_needs_three_passes () =
  let o =
    walk
      "let a = ref S.zero and b = ref S.zero and c = ref S.zero in\n\
      \    for i = from to until - 1 do\n\
      \      c := !b;\n\
      \      b := !a;\n\
      \      a := st.src.(i)\n\
      \    done;\n\
      \    st.p <- !a;\n\
      \    st.q <- !b;\n\
      \    st.r <- !c"
  in
  List.iter
    (fun dst ->
      Alcotest.(check (list string)) (dst ^ " sources") [ "src" ]
        (edge_sources o dst))
    [ "p"; "q"; "r" ]

(* [t] is born anew in every pass, but [b] and [c] are older than the
   loop: the taint [a] picks up in the first pass reaches [b] through [t]
   only in the second, a pass that records no new fact, and [c] only in
   the third.  A move of an older cell made through a pass-local one
   must still ask for another pass. *)
let test_fresh_cell_moves_older_cell () =
  let o =
    walk
      "let a = ref S.zero and b = ref S.zero and c = ref S.zero in\n\
      \    for i = from to until - 1 do\n\
      \      c := !b;\n\
      \      let t = ref !a in\n\
      \      b := !t;\n\
      \      a := st.src.(i)\n\
      \    done;\n\
      \    st.p <- !b;\n\
      \    st.q <- !a;\n\
      \    st.r <- !c"
  in
  List.iter
    (fun dst ->
      Alcotest.(check (list string)) (dst ^ " sources") [ "src" ]
        (edge_sources o dst))
    [ "p"; "q"; "r" ]

(* Twelve nested constant-range loops: three passes per level walk the
   innermost body 3^12 = 531,441 times (6.1M steps); a loop that stops
   once a pass adds nothing spends 373. *)
let nest_depth = 12
let nest_step_bound = 2_000

let test_deep_nest_converges () =
  let var k = Printf.sprintf "i%d" k in
  let rec nest k =
    if k > nest_depth then
      Printf.sprintf "st.p <- S.(st.p +. st.src.(%s))" (var nest_depth)
    else Printf.sprintf "for %s = 0 to 1 do %s done" (var k) (nest (k + 1))
  in
  let o = walk (nest 1) in
  Alcotest.(check (list string)) "p sources" [ "p"; "src" ] (edge_sources o "p");
  if o.Activity.Absint.o_steps > nest_step_bound then
    Alcotest.failf "%d-deep nest took %d steps (bound %d)" nest_depth
      o.Activity.Absint.o_steps nest_step_bound

(* The same nest around a body that allocates its own accumulator, as
   MG's [interp] and [rprj3] do: [acc] moves in every pass, but it is
   born anew in every pass, so the move is no reason to walk the body
   again.  Counting it walked the innermost body three times per level
   (12.5M steps). *)
let test_deep_nest_with_local_ref_converges () =
  let var k = Printf.sprintf "i%d" k in
  let rec nest k =
    if k > nest_depth then
      Printf.sprintf
        "let acc = ref S.zero in\n\
        \    acc := S.(!acc +. st.src.(%s));\n\
        \    st.p <- S.(st.p +. !acc)"
        (var nest_depth)
    else Printf.sprintf "for %s = 0 to 1 do %s done" (var k) (nest (k + 1))
  in
  let o = walk (nest 1) in
  Alcotest.(check (list string)) "p sources" [ "p"; "src" ] (edge_sources o "p");
  if o.Activity.Absint.o_steps > nest_step_bound then
    Alcotest.failf "%d-deep nest took %d steps (bound %d)" nest_depth
      o.Activity.Absint.o_steps nest_step_bound

(* [b] moves only inside the inner loop, in the outer loop's second
   pass; [c] reads it before that loop, so the outer loop needs a third
   pass, which it takes only if the inner loop hands the move out. *)
let test_inner_loop_move_reaches_outer_loop () =
  let o =
    walk
      "let a = ref S.zero and b = ref S.zero and c = ref S.zero in\n\
      \    for i = from to until - 1 do\n\
      \      c := !b;\n\
      \      for j = 0 to 1 do b := !a done;\n\
      \      a := st.src.(i)\n\
      \    done;\n\
      \    st.r <- !c"
  in
  Alcotest.(check (list string)) "r sources" [ "src" ] (edge_sources o "r")

let suites =
  [
    ( "activity.static",
      [
        Alcotest.test_case "golden verdict table (8 apps)" `Quick
          test_golden_table;
        Alcotest.test_case "FT refinement = padding plane" `Quick
          test_ft_refinement_is_padding_plane;
        Alcotest.test_case "unsound_claims detector" `Quick
          test_unsound_claims;
        Alcotest.test_case "kill-before-read is inactive (toy)" `Quick
          test_toy_kill_is_inactive;
        Alcotest.test_case "pragma overrides verdict" `Quick
          test_toy_pragma_overrides;
        Alcotest.test_case "pragma needs a reason" `Quick
          test_toy_pragma_needs_reason;
        Alcotest.test_case "unused pragma warns" `Quick
          test_toy_unused_pragma_warns;
        Alcotest.test_case "ref chain taints after three passes" `Quick
          test_ref_chain_needs_three_passes;
        Alcotest.test_case "pass-local ref moves an older cell" `Quick
          test_fresh_cell_moves_older_cell;
        Alcotest.test_case "12-deep loop nest converges" `Quick
          test_deep_nest_converges;
        Alcotest.test_case "12-deep nest with a pass-local ref" `Quick
          test_deep_nest_with_local_ref_converges;
        Alcotest.test_case "inner loop hands a move out" `Quick
          test_inner_loop_move_reaches_outer_loop;
      ] );
    ( "activity.gate",
      [
        Alcotest.test_case "fast path: tape-node reduction" `Slow
          test_fast_path_tape_reduction;
        QCheck_alcotest.to_alcotest prop_ep_buffer_uncritical;
        QCheck_alcotest.to_alcotest prop_ep_fast_path_equal;
      ] );
  ]
