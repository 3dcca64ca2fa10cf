(* `scvad check discover`: AutoCheck-style static discovery of the
   checkpoint set over the NPB kernel sources, cross-validated against
   the dynamic engine.  --gate runs:

   - containment: at every benched checkpoint boundary (the first and
     the last), no dynamically critical variable may sit in a field
     the discovery ranked prunable — the discovered set must contain
     the dynamic engine's critical elements;
   - fast path: analyzing under the discovered set (the pruned
     variables as Config.skip) must leave every criticality mask
     bitwise identical to the unfiltered analysis at boundary 0;
   - non-vacuity: every app must resolve with a non-empty ranking, and
     at least one app must prune a declared variable or add an
     undeclared field — otherwise discovery found nothing the
     declarations did not already say.

   Declared-but-prunable variables are reported as candidate dead
   weight in the declaration, with the static evidence. *)

module Driver = Scvad_discover.Driver
module Rank = Scvad_discover.Rank
module Criticality = Scvad_core.Criticality
module Analyzer = Scvad_core.Analyzer

(* The benched boundaries: the first checkpoint and the latest one the
   app's analysis window admits.  Criticality varies with the boundary
   (cf. IS), so containment is checked at both extremes. *)
let boundaries (module A : Scvad_core.App.S) =
  if A.analysis_niter > 1 then [ 0; A.analysis_niter - 1 ] else [ 0 ]

(* Gate part 1 — containment: a dynamically critical variable whose
   backing field the discovery ranked prunable is a hard failure; the
   static claim "zero derivative, safe to drop" is falsified by the
   engine the paper builds.  [report] is the unfiltered analysis at
   boundary [at_iter]. *)
let check_containment (a : Rank.app_ranks) ~at_iter report =
  let ok = ref true in
  List.iter
    (fun (v : Criticality.var_report) ->
      let crit = Criticality.critical v in
      if crit > 0 then
        match
          List.find_opt
            (fun (f : Rank.field_rank) ->
              f.Rank.f_var = Some v.Criticality.name)
            a.Rank.r_fields
        with
        | Some f when Rank.is_prunable f.Rank.f_verdict ->
            Printf.eprintf
              "discover: GATE VIOLATION: %s.%s: %d dynamically critical \
               element(s) at boundary %d, but field %s is ranked %s (%s)\n"
              a.Rank.r_app v.Criticality.name crit at_iter f.Rank.f_field
              (Rank.verdict_name f.Rank.f_verdict)
              f.Rank.f_reason;
            ok := false
        | _ -> ())
    report.Criticality.vars;
  !ok

(* Gate part 2 — fast path: pre-resolving the pruned variables must
   not change any mask of the [unfiltered] boundary-0 analysis. *)
let check_fast_path (module A : Scvad_core.App.S) skip unfiltered =
  Gate.masks_identical ~pass:"discover" ~mode:"discovered-mode" ~app:A.name
    unfiltered
    (Analyzer.run
       ~config:Analyzer.Config.(default |> with_skip [ (A.name, skip) ])
       (module A))

(* Candidate dead weight: hand-declared variables the ranking prunes,
   reported with the static evidence (not a failure — the declaration
   over-approximates, which is safe, just wasteful). *)
let report_dead_weight (a : Rank.app_ranks) =
  List.iter
    (fun (f : Rank.field_rank) ->
      match f.Rank.f_var with
      | Some v ->
          Printf.eprintf
            "discover: %s: declared variable %s is candidate dead weight: \
             field %s ranked %s — %s\n"
            a.Rank.r_app v f.Rank.f_field
            (Rank.verdict_name f.Rank.f_verdict)
            f.Rank.f_reason
      | None -> ())
    (Rank.pruned_vars a)

let run_gate (ps : Rank.proposals) =
  let ok = ref true in
  let checked =
    List.filter_map
      (fun (a : Rank.app_ranks) ->
        if not a.Rank.r_resolved then begin
          Printf.eprintf
            "discover: GATE VIOLATION: app %s did not resolve statically — \
             the proposal is vacuous there\n"
            a.Rank.r_app;
          ok := false
        end;
        if a.Rank.r_fields = [] then begin
          Printf.eprintf
            "discover: GATE VIOLATION: app %s has no ranked fields\n"
            a.Rank.r_app;
          ok := false
        end;
        match Gate.registered ~pass:"discover" a.Rank.r_app with
        | Some app -> Some (a, app)
        | None ->
            ok := false;
            None)
      ps
  in
  if ps = [] then begin
    prerr_endline "discover: GATE VIOLATION: no apps ranked";
    ok := false
  end;
  let dividend =
    List.filter
      (fun (a : Rank.app_ranks) ->
        Rank.pruned_vars a <> [] || Rank.added_fields a <> [])
      ps
  in
  if ps <> [] && dividend = [] then begin
    prerr_endline
      "discover: GATE VIOLATION: discovery neither pruned a declared \
       variable nor added an undeclared field anywhere — the pass is \
       vacuous";
    ok := false
  end;
  List.iter
    (fun ((a : Rank.app_ranks), (module A : Scvad_core.App.S)) ->
      report_dead_weight a;
      let reports =
        List.map
          (fun at_iter ->
            ( at_iter,
              Analyzer.run
                ~config:Analyzer.Config.(default |> with_at_iter at_iter)
                (module A) ))
          (boundaries (module A))
      in
      List.iter
        (fun (at_iter, report) ->
          if not (check_containment a ~at_iter report) then ok := false)
        reports;
      match Rank.pruned_float_vars a with
      | [] -> ()
      | skip ->
          if not (check_fast_path (module A) skip (List.assoc 0 reports))
          then ok := false)
    checked;
  if !ok then
    Printf.eprintf
      "discover: gate passed: %d app(s) ranked, %d field(s) required, %d \
       prunable, %d unknown; no pruned field dynamically critical; \
       discovered-mode masks identical.\n"
      (List.length ps)
      (Rank.count_verdict ps Rank.Required)
      (Rank.count_verdict ps Rank.Prunable_recomputable
      + Rank.count_verdict ps Rank.Prunable_dead)
      (Rank.count_verdict ps Rank.Unknown);
  !ok

let check ~json ~gate root =
  let proposals, findings = Driver.analyze_dir root in
  let render = if json then Driver.render_json else Driver.render_text in
  ( render proposals findings,
    findings,
    fun () -> (not gate) || run_gate proposals )
