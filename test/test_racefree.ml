(* Tests for the race-freedom certification: golden verdicts on fixture
   trees (disjoint proofs, shared-write witnesses, obligations, assume
   pragmas), the real-tree gate the CI @race-check alias enforces, the
   JSON report round-trip, and the dynamic write-set sanitizer in both
   the witness-producing and the clean configuration. *)

module Driver = Scvad_racefree.Driver
module Verdict = Scvad_racefree.Verdict
module Disjoint = Scvad_racefree.Disjoint
module Finding = Scvad_lint.Finding
module Sanitize = Scvad_sanitize.Sanitize
module Pool = Scvad_par.Pool

(* dune runtest runs in test/, dune exec from the workspace root —
   resolve the fixture trees from either. *)
let root =
  if Sys.file_exists "racefree_fixtures" then "racefree_fixtures"
  else Filename.concat "test" "racefree_fixtures"

let fixture name = Filename.concat root name

let site_named report context =
  match
    List.find_opt
      (fun (c : Verdict.classified) ->
        c.Verdict.c_site.Verdict.st_context = context)
      report.Driver.r_sites
  with
  | Some c -> c
  | None -> Alcotest.failf "no fan-out site in context %S" context

(* ------------------------------------------------------------------ *)
(* Golden verdicts on the fixture trees                                *)
(* ------------------------------------------------------------------ *)

let test_good_tree () =
  let report = Driver.certify ~root:(fixture "good") in
  Alcotest.(check int) "two sites" 2 (List.length report.Driver.r_sites);
  Alcotest.(check int) "no findings" 0 (List.length report.Driver.r_findings);
  (match (site_named report "bump").Verdict.c_verdict with
  | Verdict.Race_free p ->
      Alcotest.(check bool) "bump writes the shard's own datum" true
        (p.Verdict.p_shard >= 1)
  | v -> Alcotest.failf "bump: expected race-free, got %s" (Verdict.verdict_name v));
  match (site_named report "stripe").Verdict.c_verdict with
  | Verdict.Race_free p -> (
      match p.Verdict.p_affine with
      | [ (_, Disjoint.Disjoint { scale; lo_offset; hi_offset }) ] ->
          Alcotest.(check int) "stride" 2 scale;
          Alcotest.(check int) "low offset" 0 lo_offset;
          Alcotest.(check int) "high offset" 1 hi_offset
      | _ -> Alcotest.fail "stripe: expected one disjoint affine lane")
  | v -> Alcotest.failf "stripe: expected race-free, got %s" (Verdict.verdict_name v)

let test_bad_tree () =
  let report = Driver.certify ~root:(fixture "bad") in
  Alcotest.(check int) "two sites" 2 (List.length report.Driver.r_sites);
  Alcotest.(check int) "both fail the gate" 2
    (List.length (Driver.gate_violations report));
  (match (site_named report "clobber").Verdict.c_verdict with
  | Verdict.Shared_write (w :: _) ->
      Alcotest.(check bool) "witness names the captured accumulator" true
        (Astring.String.is_infix ~affix:"acc" w.Verdict.sh_what)
  | v ->
      Alcotest.failf "clobber: expected shared-write, got %s"
        (Verdict.verdict_name v));
  match (site_named report "mystery").Verdict.c_verdict with
  | Verdict.Unknown obs ->
      Alcotest.(check bool) "obligation names the unresolved callee" true
        (List.exists (Astring.String.is_infix ~affix:"Mystery") obs)
  | v ->
      Alcotest.failf "mystery: expected unknown, got %s"
        (Verdict.verdict_name v)

let test_assumed_tree () =
  let report = Driver.certify ~root:(fixture "assumed") in
  (match (site_named report "histogram").Verdict.c_verdict with
  | Verdict.Assumed why ->
      Alcotest.(check bool) "justification carried" true
        (Astring.String.is_infix ~affix:"binning" why)
  | v ->
      Alcotest.failf "histogram: expected assumed, got %s"
        (Verdict.verdict_name v));
  Alcotest.(check bool) "assumed sites pass the gate" true
    (Driver.gate_violations report = []);
  (* The pragma whose context no longer exists is a staleness warning,
     never silently dropped. *)
  match
    List.filter
      (fun (f : Finding.t) -> f.Finding.severity = Finding.Warning)
      report.Driver.r_findings
  with
  | [ f ] ->
      Alcotest.(check bool) "warning names the stale subject" true
        (Astring.String.is_infix ~affix:"vanished" f.Finding.message)
  | fs -> Alcotest.failf "expected one stale-pragma warning, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* The real tree: the acceptance gate the CI alias enforces            *)
(* ------------------------------------------------------------------ *)

let test_real_tree_certified () =
  match Driver.locate_lib_dir () with
  | None -> Alcotest.fail "cannot locate lib/ above the test cwd"
  | Some lib ->
      let report = Driver.certify ~root:lib in
      Alcotest.(check bool) "all three engine fan-outs discovered" true
        (List.length report.Driver.r_sites >= 3);
      Alcotest.(check int) "zero gate violations" 0
        (List.length (Driver.gate_violations report));
      List.iter
        (fun (c : Verdict.classified) ->
          match c.Verdict.c_verdict with
          | Verdict.Race_free _ -> ()
          | v ->
              Alcotest.failf "%s: expected race-free, got %s"
                (Verdict.site_to_text c.Verdict.c_site)
                (Verdict.verdict_name v))
        report.Driver.r_sites

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let report = Driver.certify ~root:(fixture "bad") in
  let rows = Driver.sites_of_json (Driver.render_json report) in
  Alcotest.(check int) "same cardinality"
    (List.length report.Driver.r_sites)
    (List.length rows);
  List.iter2
    (fun (c : Verdict.classified) (row : Driver.site_row) ->
      let s = c.Verdict.c_site in
      Alcotest.(check string) "file" s.Verdict.st_file row.Driver.j_file;
      Alcotest.(check int) "line" s.Verdict.st_line row.Driver.j_line;
      Alcotest.(check string) "kind"
        (Verdict.site_kind_name s.Verdict.st_kind)
        (Verdict.site_kind_name row.Driver.j_kind);
      Alcotest.(check string) "context" s.Verdict.st_context row.Driver.j_context;
      Alcotest.(check string) "verdict"
        (Verdict.verdict_name c.Verdict.c_verdict)
        row.Driver.j_verdict)
    report.Driver.r_sites rows

let test_json_rejects_garbage () =
  Alcotest.(check bool) "malformed JSON raises" true
    (match Driver.sites_of_json "{\"sites\": [{" with
    | exception Failure _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Dynamic write-set sanitizer                                         *)
(* ------------------------------------------------------------------ *)

(* Plant a real overlap: every shard records the same span of one
   object, so any two shards of the batch form a witness. *)
let test_sanitizer_catches_planted_race () =
  Sanitize.arm ();
  let stats =
    Fun.protect
      ~finally:(fun () -> if Sanitize.armed () then ignore (Sanitize.disarm ()))
      (fun () ->
        Pool.with_pool ~jobs:4 (fun pool ->
            let obj = Sanitize.fresh_id () in
            ignore
              (Pool.map ~sanitize:true pool
                 (fun _ -> Sanitize.record ~obj ~lo:0 ~hi:8 ~tag:"planted")
                 [ 1; 2; 3; 4 ]));
        Sanitize.disarm ())
  in
  Alcotest.(check bool) "at least one witness" true
    (stats.Sanitize.witnesses <> []);
  match stats.Sanitize.witnesses with
  | w :: _ ->
      Alcotest.(check bool) "distinct shards" true
        (w.Sanitize.w_shard_a <> w.Sanitize.w_shard_b);
      Alcotest.(check (pair int int)) "overlap interval" (0, 8)
        (w.Sanitize.w_lo, w.Sanitize.w_hi)
  | [] -> ()

let test_sanitizer_clean_on_disjoint_spans () =
  Sanitize.arm ();
  let stats =
    Fun.protect
      ~finally:(fun () -> if Sanitize.armed () then ignore (Sanitize.disarm ()))
      (fun () ->
        Pool.with_pool ~jobs:4 (fun pool ->
            let obj = Sanitize.fresh_id () in
            ignore
              (Pool.map ~sanitize:true pool
                 (fun i ->
                   Sanitize.record ~obj ~lo:(8 * i) ~hi:(8 * (i + 1))
                     ~tag:"lane")
                 [ 0; 1; 2; 3 ]));
        Sanitize.disarm ())
  in
  Alcotest.(check int) "spans recorded" 4 stats.Sanitize.spans;
  Alcotest.(check (list string)) "no witnesses" []
    (List.map Sanitize.witness_to_text stats.Sanitize.witnesses)

(* The contract table holds one entry per name: registering a name
   twice is an error, not a silent override. *)
let test_duplicate_contract_raises () =
  Alcotest.check_raises "duplicate Bytes.length"
    (Invalid_argument "Contracts.register: duplicate contract for Bytes.length")
    (fun () ->
      Scvad_racefree.Contracts.register "Bytes"
        [ Scvad_racefree.Contracts.pure "length" ])

let suites =
  [ ( "racefree.verdicts",
      [ Alcotest.test_case "good tree: shard + affine proofs" `Quick
          test_good_tree;
        Alcotest.test_case "bad tree: shared-write and unknown" `Quick
          test_bad_tree;
        Alcotest.test_case "assume pragma downgrades, stale warns" `Quick
          test_assumed_tree;
        Alcotest.test_case "real tree: every fan-out race-free" `Quick
          test_real_tree_certified ] );
    ( "racefree.report",
      [ Alcotest.test_case "JSON round-trips" `Quick test_json_roundtrip;
        Alcotest.test_case "JSON parser rejects garbage" `Quick
          test_json_rejects_garbage;
        Alcotest.test_case "a duplicate contract raises" `Quick
          test_duplicate_contract_raises ] );
    ( "racefree.sanitizer",
      [ Alcotest.test_case "planted overlap yields a witness" `Quick
          test_sanitizer_catches_planted_race;
        Alcotest.test_case "disjoint lanes stay clean" `Quick
          test_sanitizer_clean_on_disjoint_spans ] ) ]
