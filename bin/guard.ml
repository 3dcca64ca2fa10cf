(* `scvad check guard`: non-differentiable dataflow certificates over
   the NPB kernel sources, with a dynamic perturbation-falsifier gate.
   --gate runs the full gate:

   (a) every variable of every app is classified (no Unknown left
       after pragmas) and every app's analyses resolved;
   (b) witness hunt: for Control_tainted variables, seeded
       perturbations of elements the reverse analysis calls uncritical
       must produce at least one bitwise output divergence somewhere —
       the concrete unsoundness witness the certificate predicts;
   (c) Smooth validation: the same perturbations on Smooth variables
       (pragma-assumed ones included) must produce no witness at all;
   (d) every app's falsifier-hardened masks still pass the
       crash/restart verification harness.

   --trials sets the total perturbation budget of the gate.
   --baseline compares against a committed certificate JSON and fails
   if any previously-Smooth variable regressed to Control_tainted or
   Unknown without a pragma. *)

module Driver = Scvad_guard.Driver
module Cert = Scvad_guard.Cert
module Analyzer = Scvad_core.Analyzer
module Falsifier = Scvad_core.Falsifier
module Harness = Scvad_core.Harness
module Criticality = Scvad_core.Criticality

(* The falsifier's RNG seed: fixed, so every gate run perturbs the same
   elements. *)
let seed = 0

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

(* Gate (a): nothing unresolved, nothing unclassified.  An Unknown
   certificate is an unfinished proof — the fix is either sharpening
   the pass or adding a justified pragma, never shipping "don't know". *)
let check_classified (certs : Cert.certificates) =
  let ok = ref true in
  List.iter
    (fun (a : Cert.app_certs) ->
      if not a.Cert.resolved then begin
        Printf.eprintf "guard: GATE VIOLATION: %s: analysis unresolved\n"
          a.Cert.app;
        ok := false
      end;
      List.iter
        (fun (v : Cert.var_cert) ->
          if v.Cert.class_ = Cert.Unknown then begin
            Printf.eprintf
              "guard: GATE VIOLATION: %s.%s is Unknown (%s)\n" a.Cert.app
              v.Cert.var v.Cert.reason;
            ok := false
          end)
        a.Cert.certs)
    certs;
  !ok

(* Per-app context for the dynamic parts of the gate. *)
type app_ctx = {
  x_certs : Cert.app_certs;
  x_app : (module Scvad_core.App.S);
  x_report : Criticality.report;  (* naive AD verdict *)
}

let contexts (certs : Cert.certificates) =
  let ok = ref true in
  let ctxs =
    List.filter_map
      (fun (a : Cert.app_certs) ->
        match Gate.registered ~pass:"guard" a.Cert.app with
        | Some app ->
            Some
              { x_certs = a; x_app = app; x_report = Analyzer.run app }
        | None ->
            ok := false;
            None)
      certs
  in
  (ctxs, !ok)

let restrict_targets targets vars =
  List.filter (fun t -> List.mem t.Falsifier.t_var vars) targets

(* Gate (b): hunt witnesses on Control_tainted variables at both the
   window ends — boundary 0 (perturb initial state, rerun everything)
   and boundary = niter (perturb final state, recompute the output
   reduction only; IS's bucket ranks live here). *)
let hunt_witnesses ~trials ctx =
  let (module A : Scvad_core.App.S) = ctx.x_app in
  let tainted = Cert.tainted_vars ctx.x_certs in
  let targets =
    restrict_targets (Falsifier.targets_of_report ctx.x_report) tainted
  in
  if targets = [] then []
  else
    let niter = A.analysis_niter in
    let per_boundary = max 1 (trials / 2) in
    List.concat_map
      (fun boundary ->
        let o =
          Falsifier.run ~boundary ~niter ~trials:per_boundary ~seed ~targets
            ctx.x_app
        in
        if not o.Falsifier.f_stable then
          Printf.eprintf
            "guard: warning: %s: continuation not bitwise stable at boundary \
             %d; witness hunt skipped there\n"
            A.name boundary;
        o.Falsifier.f_witnesses)
      [ 0; niter ]

(* Gate (c): the same perturbations on Smooth variables must never
   diverge.  Smooth floats contribute their uncritical elements; Smooth
   integer variables contribute every element (AD never judged them, so
   the certificate alone claims their irrelevance). *)
let smooth_targets ctx =
  restrict_targets
    (Falsifier.targets_of_report ctx.x_report)
    (Cert.smooth_vars ctx.x_certs)

let validate_smooth ~trials ctx =
  let (module A : Scvad_core.App.S) = ctx.x_app in
  let targets = smooth_targets ctx in
  if targets = [] || trials = 0 then (0, [])
  else
    let o =
      Falsifier.run ~boundary:0 ~niter:A.analysis_niter ~trials ~seed ~targets
        ctx.x_app
    in
    if not o.Falsifier.f_stable then begin
      Printf.eprintf
        "guard: warning: %s: continuation not bitwise stable; Smooth \
         validation skipped\n"
        A.name;
      (0, [])
    end
    else (o.Falsifier.f_trials, o.Falsifier.f_witnesses)

(* Split [total] Smooth-validation trials across apps, proportional to
   1 / the tape nodes of the app's dense analysis (cheap apps absorb
   more trials; IS records none, hence the [max 1]) with a floor so
   every app gets real coverage. *)
let validation_shares ~total ctxs =
  let floor_trials = 24 in
  let weight ctx =
    1.0 /. float_of_int (max 1 ctx.x_report.Criticality.tape_nodes)
  in
  let wsum = List.fold_left (fun acc c -> acc +. weight c) 0.0 ctxs in
  List.map
    (fun ctx ->
      let share =
        if wsum <= 0.0 then floor_trials
        else
          max floor_trials
            (int_of_float (float_of_int total *. weight ctx /. wsum))
      in
      (ctx, share))
    ctxs

(* Gate (d): the hardened masks must still restart correctly. *)
let check_restart ctx witnesses =
  let (module A : Scvad_core.App.S) = ctx.x_app in
  let hardened = Falsifier.harden ctx.x_report witnesses in
  let r = Harness.verify_report ~report:hardened ctx.x_app in
  if not r.Harness.verified then
    Printf.eprintf
      "guard: GATE VIOLATION: %s: hardened masks failed crash/restart \
       verification (golden %.17g, restarted %.17g)\n"
      A.name r.Harness.golden.Harness.output
      r.Harness.restarted.Harness.output;
  r.Harness.verified

let describe_witness app (w : Falsifier.witness) =
  Printf.sprintf "%s.%s[%d] at boundary %d (delta %g%s)" app w.Falsifier.w_var
    w.Falsifier.w_element w.Falsifier.w_boundary w.Falsifier.w_delta
    (match w.Falsifier.w_fd with
    | Some fd -> Printf.sprintf ", fd %g" fd
    | None -> "")

let run_gate ~trials (certs : Cert.certificates) =
  let ok = ref (check_classified certs) in
  let ctxs, ctx_ok = contexts certs in
  if not ctx_ok then ok := false;
  (* Witness hunt: a quarter of the budget, split over the apps that
     have Control_tainted variables at all. *)
  let hunters =
    List.filter (fun c -> Cert.tainted_vars c.x_certs <> []) ctxs
  in
  let hunt_share =
    match hunters with [] -> 0 | hs -> max 1 (trials / 4 / List.length hs)
  in
  let witnesses =
    List.concat_map
      (fun ctx ->
        let ws = hunt_witnesses ~trials:hunt_share ctx in
        let (module A : Scvad_core.App.S) = ctx.x_app in
        List.iter
          (fun w ->
            Printf.eprintf "guard: witness: %s\n" (describe_witness A.name w))
          (match ws with [] -> [] | w :: _ -> [ w ]);
        List.map (fun w -> (ctx, w)) ws)
      hunters
  in
  if hunters <> [] && witnesses = [] then begin
    prerr_endline
      "guard: GATE VIOLATION: no Control_tainted variable yielded a \
       perturbation witness — the certificates predict at least one";
    ok := false
  end;
  (* Smooth validation: the rest of the budget, over the apps that
     actually expose Smooth candidates. *)
  let validation_total = trials * 3 / 4 in
  let validators = List.filter (fun c -> smooth_targets c <> []) ctxs in
  let smooth_trials = ref 0 in
  List.iter
    (fun (ctx, share) ->
      let t, ws = validate_smooth ~trials:share ctx in
      smooth_trials := !smooth_trials + t;
      List.iter
        (fun w ->
          let (module A : Scvad_core.App.S) = ctx.x_app in
          Printf.eprintf
            "guard: GATE VIOLATION: Smooth variable falsified: %s\n"
            (describe_witness A.name w);
          ok := false)
        ws)
    (validation_shares ~total:validation_total validators);
  (* Restart verification with hardened masks, all apps. *)
  List.iter
    (fun ctx ->
      let ws =
        List.filter_map
          (fun (c, w) -> if c == ctx then Some w else None)
          witnesses
      in
      if not (check_restart ctx ws) then ok := false)
    ctxs;
  if !ok then
    Printf.eprintf
      "guard: gate passed: %d app(s); %d witness(es) on control-tainted \
       variables; %d Smooth-validation trial(s), none falsified; hardened \
       masks verified on restart.\n"
      (List.length ctxs) (List.length witnesses) !smooth_trials;
  !ok

(* ------------------------------------------------------------------ *)
(* Baseline regression check                                           *)
(* ------------------------------------------------------------------ *)

(* A variable certified Smooth in the committed baseline must stay
   Smooth; a silent regression to Control_tainted or Unknown means the
   kernel (or the pass) changed in a way that invalidates masks pruned
   under the old certificate. *)
let check_baseline ~baseline (certs : Cert.certificates) =
  let base =
    try Driver.certs_of_json (Scvad_lint.Source.read_file baseline)
    with e ->
      Printf.eprintf "guard: cannot read baseline %s: %s\n" baseline
        (Printexc.to_string e);
      exit 2
  in
  let ok = ref true in
  List.iter
    (fun (ba : Cert.app_certs) ->
      List.iter
        (fun (bv : Cert.var_cert) ->
          if bv.Cert.class_ = Cert.Smooth then
            match Cert.find certs ~app:ba.Cert.app ~var:bv.Cert.var with
            | None ->
                Printf.eprintf
                  "guard: GATE VIOLATION: %s.%s was Smooth in the baseline \
                   but is gone\n"
                  ba.Cert.app bv.Cert.var;
                ok := false
            | Some cv ->
                if cv.Cert.class_ <> Cert.Smooth then begin
                  Printf.eprintf
                    "guard: GATE VIOLATION: %s.%s regressed from Smooth to \
                     %s without a pragma (%s)\n"
                    ba.Cert.app bv.Cert.var
                    (Cert.class_name cv.Cert.class_)
                    cv.Cert.reason;
                  ok := false
                end)
        ba.Cert.certs)
    base;
  !ok

let check ~trials ?baseline ~json ~gate root =
  let certs, findings = Driver.analyze_dir root in
  let render = if json then Driver.render_json else Driver.render_text in
  ( render certs findings,
    findings,
    fun () ->
      let baseline_ok =
        match baseline with
        | Some baseline -> check_baseline ~baseline certs
        | None -> true
      in
      let gate_ok = (not gate) || run_gate ~trials certs in
      baseline_ok && gate_ok )
