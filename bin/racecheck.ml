(* `scvad check race`: static data-race freedom certification for the
   domain-parallel engine, cross-checked by the dynamic write-set
   sanitizer (DESIGN.md §17).

   ROOT is the scanned library tree (default: the repo's lib/; lib/par
   and lib/sanitize are excluded by construction — they are the trusted
   runtime the certification is about).  --gate runs:

   - coverage: every syntactic Pool.map / Pool.init fan-out site must
     be classified, with zero [Unknown] verdicts — an unproved site is
     a gate failure, pragma-assumed sites pass but stay visible;
   - no shared writes: a [Shared_write] verdict (two shards provably
     reaching the same captured state) fails outright unless assumed;
   - falsification: jobs=4 sanitizer sessions over the full NPB suite
     plus dedicated reverse (per-variable, unbudgeted and budgeted) and
     forward (per-element) analyses must produce no witness — a witness against
     a [Race_free] certificate means the static pass is wrong, not just
     incomplete — and each dedicated analysis must start a sanitized
     batch. *)

module Driver = Scvad_racefree.Driver
module Verdict = Scvad_racefree.Verdict
module Sanitize = Scvad_sanitize.Sanitize
module Analyzer = Scvad_core.Analyzer
module Criticality = Scvad_core.Criticality

(* Gate part 1 — static coverage: every site classified, nothing
   unknown, nothing shared without a pragma. *)
let check_static (report : Driver.report) =
  let ok = ref true in
  if report.Driver.r_sites = [] then begin
    prerr_endline
      "racecheck: GATE VIOLATION: no fan-out sites found — the scan is \
       vacuous";
    ok := false
  end;
  List.iter
    (fun (c : Verdict.classified) ->
      if not (Verdict.gate_ok c) then begin
        Printf.eprintf
          "racecheck: GATE VIOLATION: %s: verdict %s\n"
          (Verdict.site_to_text c.Verdict.c_site)
          (Verdict.verdict_name c.Verdict.c_verdict);
        (match c.Verdict.c_verdict with
        | Verdict.Unknown obs ->
            List.iter
              (fun o -> Printf.eprintf "racecheck:   obligation: %s\n" o)
              obs
        | Verdict.Shared_write ws ->
            List.iter
              (fun (w : Verdict.shared) ->
                Printf.eprintf "racecheck:   write %s: %s\n" w.Verdict.sh_site
                  w.Verdict.sh_what)
              ws
        | _ -> ());
        ok := false
      end)
    report.Driver.r_sites;
  !ok

(* Gate part 2 — falsification: hunt witnesses against the race-free
   certificates with the dynamic sanitizer at jobs=4.  The suite run
   exercises the whole-analysis fan and its nested per-variable maps;
   the dedicated runs drive each certified fan-out shape as the
   {e outer} (sanitized) batch: per-variable mask extraction on lu (four
   float variables, so the map really fans out), from a dense and from
   a budgeted tape, and per-element forward probes on cg-tiny.  Each run
   is a session of its own, and a run that starts no sanitized batch
   fails the gate: its fan-out ran inline, so nothing was checked. *)
let check_dynamic () =
  let open Analyzer.Config in
  let analyze name config () =
    match Scvad_npb.Suite.find name with
    | Some app -> ignore (Analyzer.run ~config:(config |> with_jobs 4) app)
    | None -> failwith ("racecheck: no benchmark named " ^ name)
  in
  let runs =
    [ ( "suite",
        fun () ->
          ignore
            (Analyzer.run_suite ~config:(default |> with_jobs 4)
               Scvad_npb.Suite.all) );
      ("lu", analyze "lu" default);
      ("budgeted lu", analyze "lu" (default |> with_memory_budget 100_000));
      ( "cg-tiny forward",
        analyze "cg-tiny" (default |> with_mode Criticality.Forward_probe) ) ]
  in
  let sessions =
    List.map
      (fun (what, run) ->
        Sanitize.arm ();
        run ();
        let stats = Sanitize.disarm () in
        if stats.Sanitize.batches = 0 then
          Printf.eprintf
            "racecheck: GATE VIOLATION: the %s run started no sanitized \
             batch: its fan-out ran inline and was not checked\n"
            what;
        stats)
      runs
  in
  let total f = List.fold_left (fun n st -> n + f st) 0 sessions in
  let witnesses = List.concat_map (fun st -> st.Sanitize.witnesses) sessions in
  List.iter
    (fun w ->
      Printf.eprintf
        "racecheck: GATE VIOLATION: sanitizer witness against a race-free \
         certificate: %s\n"
        (Sanitize.witness_to_text w))
    witnesses;
  Printf.eprintf
    "racecheck: sanitizer: %d batch(es), %d span(s) recorded, %d dropped \
     under budget, %d witness(es).\n"
    (total (fun st -> st.Sanitize.batches))
    (total (fun st -> st.Sanitize.spans))
    (total (fun st -> st.Sanitize.dropped))
    (List.length witnesses);
  witnesses = [] && List.for_all (fun st -> st.Sanitize.batches > 0) sessions

let run_gate report =
  let static_ok = check_static report in
  (* The sanitizer hunt runs even when the static gate failed: a
     witness tells the developer which failure is a real race. *)
  let dynamic_ok = check_dynamic () in
  if static_ok && dynamic_ok then
    Printf.eprintf
      "racecheck: gate passed: %d site(s) classified (%d race-free, %d \
       assumed), no sanitizer witness at jobs=4.\n"
      (List.length report.Driver.r_sites)
      (Driver.count report "race-free")
      (Driver.count report "assumed");
  static_ok && dynamic_ok

let check ~json ~gate root =
  let report = Driver.certify ~root in
  let render = if json then Driver.render_json else Driver.render_text in
  (render report, report.Driver.r_findings, fun () -> (not gate) || run_gate report)
