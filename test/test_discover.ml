(* Checkpoint-set discovery tests: the golden discovered-set table for
   the eight NPB kernels (proposed vs declared), the containment
   property the @discover-check gate enforces (every dynamically
   critical variable lives in a discovered field, at random apps and
   boundaries), the analyzer's discovered mode, and pragma handling on
   a synthetic kernel. *)

open Scvad_core
module Rank = Scvad_discover.Rank
module Driver = Scvad_discover.Driver
module Finding = Scvad_lint.Finding

let npb_dir () =
  match Scvad_activity.Driver.locate_npb_dir () with
  | Some d -> d
  | None -> Alcotest.fail "lib/npb not found above the test cwd"

(* One discovery pass for the whole suite. *)
let proposals_cache = ref None

let proposals () =
  match !proposals_cache with
  | Some v -> v
  | None ->
      let v = Driver.analyze_dir (npb_dir ()) in
      proposals_cache := Some v;
      v

let app_ranks name =
  let ps, _ = proposals () in
  match List.find_opt (fun (a : Rank.app_ranks) -> a.r_app = name) ps with
  | Some a -> a
  | None -> Alcotest.failf "no proposal for app %s" name

(* ------------------------------------------------------------------ *)
(* Golden discovered-set table                                         *)
(* ------------------------------------------------------------------ *)

(* (app, proposed checkpoint set, pruned declared vars, added
   undeclared fields).  The substantive rows: EP's regenerated scratch
   buffer is pruned from the declaration, and every app whose model
   carries more mutable state than its declaration (CG most of all)
   has the extra fields surfaced as required. *)
let golden =
  [
    ("bt", [ "iter_done"; "rhs"; "u" ], [], [ "rhs" ]);
    ( "cg",
      [
        "iter_done"; "matrix"; "p"; "q"; "r"; "rnorm"; "x"; "z"; "zeta";
      ],
      [],
      [ "matrix"; "p"; "q"; "r"; "rnorm"; "z"; "zeta" ] );
    ("ep", [ "iter_done"; "q"; "sx"; "sy" ], [ "buffer" ], []);
    ( "ft",
      [ "iter_done"; "pencil"; "sums"; "twiddle"; "w"; "y" ],
      [],
      [ "pencil"; "twiddle"; "w" ] );
    ( "is",
      [
        "bucket_ptrs"; "iter_done"; "key_array"; "key_buff2";
        "passed_verification";
      ],
      [],
      [ "key_buff2" ] );
    ( "lu",
      [ "iter_done"; "qs"; "rho_i"; "rsd"; "tmp"; "u" ],
      [],
      [ "tmp" ] );
    ("mg", [ "iter_done"; "r"; "u"; "v" ], [], [ "v" ]);
    ("sp", [ "iter_done"; "rhs"; "u" ], [], [ "rhs" ]);
  ]

let test_golden_table () =
  let ps, findings = proposals () in
  Alcotest.(check int) "eight apps ranked" 8 (List.length ps);
  Alcotest.(check (list string))
    "no findings" []
    (List.map Finding.to_text findings);
  List.iter
    (fun (app, proposed, pruned, added) ->
      let a = app_ranks app in
      Alcotest.(check bool) (app ^ " resolved") true a.Rank.r_resolved;
      Alcotest.(check (list string))
        (app ^ " proposed set") proposed
        (Rank.discovered_fields a);
      Alcotest.(check (list string))
        (app ^ " pruned declared vars") pruned
        (List.filter_map (fun f -> f.Rank.f_var) (Rank.pruned_vars a));
      Alcotest.(check (list string))
        (app ^ " added undeclared fields") added
        (List.map (fun f -> f.Rank.f_field) (Rank.added_fields a)))
    golden

(* The discovery dividend on EP: the declaration over-approximates —
   buffer is regenerated every iteration and never read across the
   boundary, so discovery drops it from the proposed set. *)
let test_ep_prunes_buffer () =
  let a = app_ranks "ep" in
  match Rank.find_field a ~field:"buffer" with
  | None -> Alcotest.fail "ep.buffer not ranked"
  | Some f ->
      Alcotest.(check string)
        "verdict" "prunable-dead"
        (Rank.verdict_name f.Rank.f_verdict);
      Alcotest.(check bool) "backed by a declared var" true
        (f.Rank.f_var = Some "buffer");
      Alcotest.(check bool) "not live across the boundary" false
        f.Rank.f_live

(* The other direction on IS: the declaration misses a field — the
   scratch ranking array key_buff2 is live across the boundary with an
   output path, so discovery adds it as required. *)
let test_is_adds_key_buff2 () =
  let a = app_ranks "is" in
  match Rank.find_field a ~field:"key_buff2" with
  | None -> Alcotest.fail "is.key_buff2 not ranked"
  | Some f ->
      Alcotest.(check string)
        "verdict" "required"
        (Rank.verdict_name f.Rank.f_verdict);
      Alcotest.(check bool) "undeclared" true (f.Rank.f_var = None);
      Alcotest.(check bool) "live and output-reaching" true
        (f.Rank.f_live && f.Rank.f_reaches)

let test_verdict_totals () =
  let ps, _ = proposals () in
  Alcotest.(check int) "required" 40 (Rank.count_verdict ps Rank.Required);
  Alcotest.(check int) "prunable-dead" 1
    (Rank.count_verdict ps Rank.Prunable_dead);
  Alcotest.(check int) "unknown" 0 (Rank.count_verdict ps Rank.Unknown)

(* ------------------------------------------------------------------ *)
(* The gate property, as a qcheck: every dynamically critical variable *)
(* lives in a discovered field, at random apps and boundaries          *)
(* ------------------------------------------------------------------ *)

let suite_apps = [| "ep"; "is"; "mg"; "cg" |]

let prop_critical_vars_are_discovered =
  QCheck.Test.make ~count:8
    ~name:"dynamically critical => in the discovered set"
    QCheck.(pair (int_bound (Array.length suite_apps - 1)) (int_bound 3))
    (fun (app_idx, at_iter) ->
      let name = suite_apps.(app_idx) in
      let (module A) =
        match Scvad_npb.Suite.find name with
        | Some a -> a
        | None -> QCheck.Test.fail_reportf "no %s app" name
      in
      let a = app_ranks name in
      let r =
        Analyzer.run
          ~config:
            Analyzer.Config.(
              default |> with_at_iter at_iter |> with_niter (at_iter + 1))
          (module A)
      in
      List.for_all
        (fun (v : Criticality.var_report) ->
          Criticality.critical v = 0
          ||
          match
            List.find_opt
              (fun (f : Rank.field_rank) ->
                f.Rank.f_var = Some v.Criticality.name)
              a.Rank.r_fields
          with
          | Some f -> not (Rank.is_prunable f.Rank.f_verdict)
          | None -> true)
        r.Criticality.vars)

(* The analyzer's discovered mode: scrutinizing the proposed set must
   leave every mask bitwise identical to the unfiltered analysis
   (EP's pruned buffer is all-false either way), with fewer tape
   nodes. *)
let test_discovered_mode_masks_identical () =
  let ps, _ = proposals () in
  let (module A) =
    match Scvad_npb.Suite.find "ep" with
    | Some a -> a
    | None -> Alcotest.fail "no ep app"
  in
  let full = Analyzer.run (module A) in
  let disc =
    Analyzer.run
      ~config:
        Analyzer.Config.(
          default
          |> with_skip
               (List.map
                  (fun (a : Rank.app_ranks) ->
                    (a.Rank.r_app, Rank.pruned_float_vars a))
                  ps))
      (module A)
  in
  List.iter
    (fun (v : Criticality.var_report) ->
      Alcotest.(check bool)
        (v.Criticality.name ^ " mask identical")
        true
        ((Criticality.find disc v.Criticality.name).Criticality.mask
        = v.Criticality.mask))
    full.Criticality.vars;
  Alcotest.(check bool) "fewer tape nodes under the discovered set" true
    (disc.Criticality.tape_nodes < full.Criticality.tape_nodes)

(* ------------------------------------------------------------------ *)
(* Pragmas, on a synthetic kernel                                      *)
(* ------------------------------------------------------------------ *)

let toy_source ~pragma =
  Printf.sprintf
    {|
let n = 4
%s

module Make_generic (S : Scvad_ad.Scalar.S) = struct
  type state = {
    mutable acc : S.t;
    scratch : S.t array;
    mutable iter_done : int;
  }

  let create () =
    { acc = S.zero; scratch = Array.make n S.zero; iter_done = 0 }

  let run st ~from ~until =
    Array.fill st.scratch 0 n (S.of_float 1.);
    for _ = from to until - 1 do
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
      of_array ~name:"scratch" (Scvad_nd.Shape.create [ n ]) st.scratch ]
end

module App = struct
  let name = "toy"
end
|}
    pragma

let analyze_toy ~pragma =
  Driver.analyze_source ~file:"toy.ml" (toy_source ~pragma)

let toy_field ~pragma field =
  match analyze_toy ~pragma with
  | None, _ -> Alcotest.fail "toy kernel not recognized as an app"
  | Some a, findings -> (
      match Rank.find_field a ~field with
      | Some f -> (f, findings)
      | None -> Alcotest.failf "no rank for toy.%s" field)

let test_toy_killed_is_recomputable () =
  (* scratch is regenerated from a constant every iteration: killed
     before read, sources all kept-or-constant, so the prune carries
     AutoCheck's recomputability justification. *)
  let f, findings = toy_field ~pragma:"" "scratch" in
  Alcotest.(check string)
    "verdict" "prunable-recomputable"
    (Rank.verdict_name f.Rank.f_verdict);
  Alcotest.(check bool) "recomputable axis" true f.Rank.f_recomputable;
  Alcotest.(check bool) "not assumed" false f.Rank.f_assumed;
  Alcotest.(check int) "no findings" 0 (List.length findings)

let test_toy_pragma_overrides () =
  let f, findings =
    toy_field
      ~pragma:
        "(* discover: assume required scratch -- restart paths refill it \
         from checkpointed state *)"
      "scratch"
  in
  Alcotest.(check string)
    "overridden verdict" "required"
    (Rank.verdict_name f.Rank.f_verdict);
  Alcotest.(check bool) "marked assumed" true f.Rank.f_assumed;
  Alcotest.(check int) "pragma consumed: no findings" 0
    (List.length findings)

let test_toy_pragma_needs_reason () =
  let _, findings = toy_field ~pragma:"(* discover: assume dead scratch *)" "scratch" in
  match findings with
  | [ f ] ->
      Alcotest.(check string) "error severity" "error"
        (Finding.severity_name f.Finding.severity)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_toy_pragma_bad_verdict () =
  let _, findings =
    toy_field
      ~pragma:
        "(* discover: assume critical scratch -- not a verdict word *)"
      "scratch"
  in
  match findings with
  | [ f ] ->
      Alcotest.(check string) "error severity" "error"
        (Finding.severity_name f.Finding.severity)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_toy_unused_pragma_warns () =
  let _, findings =
    toy_field
      ~pragma:
        "(* discover: assume dead nonexistent -- names no state field *)"
      "scratch"
  in
  match findings with
  | [ f ] ->
      Alcotest.(check string) "warning severity" "warning"
        (Finding.severity_name f.Finding.severity)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let suites =
  [
    ( "discover.static",
      [
        Alcotest.test_case "golden discovered-set table (8 apps)" `Quick
          test_golden_table;
        Alcotest.test_case "EP: declared buffer pruned" `Quick
          test_ep_prunes_buffer;
        Alcotest.test_case "IS: undeclared key_buff2 added" `Quick
          test_is_adds_key_buff2;
        Alcotest.test_case "verdict totals" `Quick test_verdict_totals;
        Alcotest.test_case "kill+regenerate is recomputable (toy)" `Quick
          test_toy_killed_is_recomputable;
        Alcotest.test_case "pragma overrides verdict" `Quick
          test_toy_pragma_overrides;
        Alcotest.test_case "pragma needs a reason" `Quick
          test_toy_pragma_needs_reason;
        Alcotest.test_case "pragma rejects unknown verdict" `Quick
          test_toy_pragma_bad_verdict;
        Alcotest.test_case "unused pragma warns" `Quick
          test_toy_unused_pragma_warns;
      ] );
    ( "discover.gate",
      [
        Alcotest.test_case "discovered mode: identical masks, fewer nodes"
          `Slow test_discovered_mode_masks_identical;
        QCheck_alcotest.to_alcotest prop_critical_vars_are_discovered;
      ] );
  ]
