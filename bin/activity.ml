(* `scvad check activity`: static activity verdicts over the NPB kernel
   sources, with an optional dynamic soundness gate.

   --gate runs the unfiltered dynamic reverse analysis for every
   analyzed app and fails if any statically-inactive element is
   dynamically critical, if the static pass proved nothing at all (a
   vacuous pass would make the gate meaningless), or if the analyzer
   fast path (static pre-resolution) changes any criticality mask. *)

module Driver = Scvad_activity.Driver
module Verdict = Scvad_activity.Verdict
module Criticality = Scvad_core.Criticality

(* Dynamic criticality masks of one app (true = critical), keyed by
   variable name, from the unfiltered reverse analysis. *)
let dynamic_masks (report : Criticality.report) =
  List.map
    (fun (v : Criticality.var_report) -> (v.Criticality.name, v.Criticality.mask))
    report.Criticality.vars

(* The gate, part 1: no statically-inactive element may be dynamically
   critical. *)
let check_soundness (av : Verdict.app_verdicts) report =
  match Driver.unsound_claims av ~masks:(dynamic_masks report) with
  | [] -> true
  | bad ->
      List.iter
        (fun (var, (n, sample)) ->
          Printf.eprintf
            "activity: GATE VIOLATION: %s.%s: %d dynamically critical \
             element(s) inside the statically-inactive claim (e.g. %s)\n"
            av.Verdict.app var n
            (String.concat ", " (List.map string_of_int sample)))
        bad;
      false

(* The gate, part 2: pre-resolving statically-inactive variables must
   not change any mask. *)
let check_fast_path (module A : Scvad_core.App.S) verdicts report =
  Gate.masks_identical ~pass:"activity" ~mode:"fast-path" ~app:A.name report
    (Scvad_core.Analyzer.run
       ~config:Scvad_core.Analyzer.Config.(default |> with_static verdicts)
       (module A))

let run_gate verdicts =
  let ok = ref true in
  let claims = Verdict.total_inactive_claims verdicts in
  if claims = 0 then begin
    prerr_endline
      "activity: GATE VIOLATION: the static pass proved no element \
       inactive anywhere — the gate would be vacuous";
    ok := false
  end;
  let checked =
    List.filter_map
      (fun (av : Verdict.app_verdicts) ->
        match Gate.registered ~pass:"activity" av.Verdict.app with
        | Some app -> Some (av, app)
        | None ->
            ok := false;
            None)
      verdicts
  in
  List.iter
    (fun ((av : Verdict.app_verdicts), (module A : Scvad_core.App.S)) ->
      let report = Scvad_core.Analyzer.run (module A) in
      if not (check_soundness av report) then ok := false;
      if Verdict.skippable_float_vars av <> [] then
        if not (check_fast_path (module A) verdicts report) then ok := false)
    checked;
  if !ok then
    Printf.eprintf
      "activity: gate passed: %d inactive element claim(s) across %d app(s), \
       none dynamically critical; fast-path masks identical.\n"
      claims (List.length checked);
  !ok

let check ~json ~gate root =
  let verdicts, findings = Driver.analyze_dir root in
  let render = if json then Driver.render_json else Driver.render_text in
  (render verdicts findings, findings, fun () -> (not gate) || run_gate verdicts)
