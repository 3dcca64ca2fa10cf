(* Guard tests: the golden certificate table for the eight NPB kernels,
   escape detection and pragma handling on a synthetic kernel, the IS
   falsifier golden witnesses (elements the reverse/taint criterion has
   nothing to say about but perturbation proves critical), the
   Smooth-never-falsified property at random boundaries, mask
   hardening, and the certificate JSON round-trip. *)

open Scvad_core
module Guard = Scvad_guard
module Cert = Guard.Cert
module Driver = Guard.Driver
module Finding = Scvad_lint.Finding

let npb_dir () =
  match Scvad_activity.Driver.locate_npb_dir () with
  | Some d -> d
  | None -> Alcotest.fail "lib/npb not found above the test cwd"

(* One static pass for the whole suite. *)
let certs_cache = ref None

let certs () =
  match !certs_cache with
  | Some v -> v
  | None ->
      let v = Driver.analyze_dir (npb_dir ()) in
      certs_cache := Some v;
      v

let find_app name =
  match Scvad_npb.Suite.find name with
  | Some a -> a
  | None -> Alcotest.failf "no %s app" name

(* ------------------------------------------------------------------ *)
(* Golden certificate table                                            *)
(* ------------------------------------------------------------------ *)

(* (app, var, class, assumed).  The assumed entries are the solver
   kernels whose flow leaks into Scvad_solvers and is vouched for by a
   guard pragma — exactly the variables the falsifier must keep
   honest. *)
let golden =
  [
    ("bt", "u", "smooth", true);
    ("bt", "step", "control-tainted", false);
    ("cg", "x", "smooth", false);
    ("cg", "it", "control-tainted", false);
    ("ep", "sx", "smooth", false);
    ("ep", "sy", "smooth", false);
    ("ep", "q", "smooth", false);
    ("ep", "buffer", "smooth", false);
    ("ep", "k", "control-tainted", false);
    ("ft", "y", "smooth", true);
    ("ft", "sums", "smooth", true);
    ("ft", "kt", "control-tainted", false);
    ("is", "passed_verification", "control-tainted", false);
    ("is", "key_array", "control-tainted", false);
    ("is", "bucket_ptrs", "control-tainted", false);
    ("is", "iteration", "control-tainted", false);
    ("lu", "u", "smooth", true);
    ("lu", "rho_i", "smooth", true);
    ("lu", "qs", "smooth", true);
    ("lu", "rsd", "smooth", true);
    ("lu", "istep", "control-tainted", false);
    ("mg", "u", "smooth", false);
    ("mg", "r", "smooth", false);
    ("mg", "it", "control-tainted", false);
    ("sp", "u", "smooth", true);
    ("sp", "step", "control-tainted", false);
  ]

let test_golden_table () =
  let cs, findings = certs () in
  List.iter
    (fun (f : Finding.t) ->
      if f.Finding.severity = Finding.Error then
        Alcotest.failf "unexpected error finding: %s" (Finding.to_text f))
    findings;
  Alcotest.(check int) "eight apps" 8 (List.length cs);
  List.iter
    (fun (a : Cert.app_certs) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s resolved" a.Cert.app)
        true a.Cert.resolved)
    cs;
  List.iter
    (fun (app, var, cls, assumed) ->
      match Cert.find cs ~app ~var with
      | None -> Alcotest.failf "no certificate for %s.%s" app var
      | Some v ->
          Alcotest.(check string)
            (Printf.sprintf "%s.%s class" app var)
            cls
            (Cert.class_name v.Cert.class_);
          Alcotest.(check bool)
            (Printf.sprintf "%s.%s assumed" app var)
            assumed v.Cert.assumed)
    golden;
  (* And nothing beyond the table. *)
  List.iter
    (fun (a : Cert.app_certs) ->
      List.iter
        (fun (v : Cert.var_cert) ->
          if
            not
              (List.exists
                 (fun (app, var, _, _) -> app = a.Cert.app && var = v.Cert.var)
                 golden)
          then Alcotest.failf "unexpected certificate %s.%s" a.Cert.app
              v.Cert.var)
        a.Cert.certs)
    cs

(* IS is the paper-relevant witness: its escape sites must include both
   the data-dependent subscripts of the distribution loop and the
   verification branches. *)
let test_is_escape_sites () =
  let cs, _ = certs () in
  let kinds var =
    match Cert.find cs ~app:"is" ~var with
    | None -> Alcotest.failf "no is.%s certificate" var
    | Some v ->
        List.sort_uniq compare
          (List.map (fun s -> s.Cert.s_kind) v.Cert.sites)
  in
  let has k var = List.mem k (kinds var) in
  Alcotest.(check bool) "key_array subscript escape" true
    (has Cert.Subscript "key_array");
  Alcotest.(check bool) "key_array branch escape" true
    (has Cert.Branch "key_array");
  Alcotest.(check bool) "key_array compare escape" true
    (has Cert.Compare "key_array");
  Alcotest.(check bool) "bucket_ptrs subscript escape" true
    (has Cert.Subscript "bucket_ptrs")

(* ------------------------------------------------------------------ *)
(* Escape detection on a synthetic kernel                              *)
(* ------------------------------------------------------------------ *)

let toy_source ~body ~pragma =
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
      %s
      st.iter_done <- st.iter_done + 1
    done

  let output st = st.acc

  let float_vars st =
    let open Scvad_core.Variable in
    [ %s
      make ~name:"acc" ~shape:Scvad_nd.Shape.scalar ~spe:1 ~fill:S.zero
        ~read:(fun lo hi dst off -> if lo < hi then dst.(off) <- st.acc)
        ~write:(fun lo hi src off -> if lo < hi then st.acc <- src.(off))
        ();
      of_array ~name:"scratch" (Scvad_nd.Shape.create [ n ]) st.scratch ]
end

module App = struct
  let name = "toy"
end
|}
    body pragma

let toy_certs ?(pragma = "") body =
  Driver.analyze_source ~file:"toy.ml" (toy_source ~body ~pragma)

let toy_cert ?pragma body var =
  match toy_certs ?pragma body with
  | None, _ -> Alcotest.fail "toy kernel not recognized as an app"
  | Some ac, findings -> (
      match Cert.find_var ac ~var with
      | Some v -> (v, findings)
      | None -> Alcotest.failf "no certificate for toy.%s" var)

let smooth_body = "for i = 0 to n - 1 do st.acc <- S.(st.acc +. st.scratch.(i)) done;"

let test_toy_smooth () =
  let acc, findings = toy_cert smooth_body "acc" in
  Alcotest.(check string) "acc smooth" "smooth" (Cert.class_name acc.Cert.class_);
  Alcotest.(check int) "no sites" 0 (List.length acc.Cert.sites);
  let scratch, _ = toy_cert smooth_body "scratch" in
  Alcotest.(check string) "scratch smooth" "smooth"
    (Cert.class_name scratch.Cert.class_);
  Alcotest.(check int) "no findings" 0 (List.length findings)

let test_toy_branch_escape () =
  let body = "if st.acc > S.zero then st.acc <- S.(st.acc +. st.acc);" in
  let acc, _ = toy_cert body "acc" in
  Alcotest.(check string) "acc control-tainted" "control-tainted"
    (Cert.class_name acc.Cert.class_);
  let kinds = List.map (fun s -> s.Cert.s_kind) acc.Cert.sites in
  Alcotest.(check bool) "branch site" true (List.mem Cert.Branch kinds);
  Alcotest.(check bool) "compare site" true (List.mem Cert.Compare kinds);
  (* The untouched variable stays smooth. *)
  let scratch, _ = toy_cert body "scratch" in
  Alcotest.(check string) "scratch smooth" "smooth"
    (Cert.class_name scratch.Cert.class_)

let test_toy_conversion_escape () =
  let body = "st.acc <- st.scratch.(int_of_float (S.to_float st.acc));" in
  let acc, _ = toy_cert body "acc" in
  Alcotest.(check string) "acc control-tainted" "control-tainted"
    (Cert.class_name acc.Cert.class_);
  let kinds = List.map (fun s -> s.Cert.s_kind) acc.Cert.sites in
  Alcotest.(check bool) "int-conversion site" true
    (List.mem Cert.Int_conversion kinds);
  Alcotest.(check bool) "subscript site" true (List.mem Cert.Subscript kinds)

let test_toy_kink_escape () =
  let body = "st.acc <- max st.acc st.scratch.(0);" in
  let acc, _ = toy_cert body "acc" in
  Alcotest.(check string) "acc control-tainted" "control-tainted"
    (Cert.class_name acc.Cert.class_);
  let kinds = List.map (fun s -> s.Cert.s_kind) acc.Cert.sites in
  Alcotest.(check bool) "kink site" true (List.mem Cert.Kink kinds)

(* Taint laundering: field-tainted data written into another field and
   branched on there must still name the source field at the escape. *)
let test_toy_laundered_taint () =
  let body =
    "st.scratch.(0) <- st.acc;\n\
    \      if st.scratch.(0) > S.zero then st.acc <- S.(st.acc +. st.acc);"
  in
  let acc, _ = toy_cert body "acc" in
  Alcotest.(check string) "acc control-tainted via scratch" "control-tainted"
    (Cert.class_name acc.Cert.class_)

(* ------------------------------------------------------------------ *)
(* Leaks and pragmas                                                   *)
(* ------------------------------------------------------------------ *)

let leak_body = "st.acc <- Mystery.blend st.acc st.scratch.(0);"

let test_toy_leak_is_unknown () =
  let acc, _ = toy_cert leak_body "acc" in
  Alcotest.(check string) "acc unknown" "unknown"
    (Cert.class_name acc.Cert.class_);
  let scratch, _ = toy_cert leak_body "scratch" in
  Alcotest.(check string) "scratch unknown" "unknown"
    (Cert.class_name scratch.Cert.class_)

let test_toy_pragma_rescues_leak () =
  let pragma =
    "(* guard: assume smooth acc — Mystery.blend is plain arithmetic *)"
  in
  let acc, findings = toy_cert ~pragma leak_body "acc" in
  Alcotest.(check string) "acc assumed smooth" "smooth"
    (Cert.class_name acc.Cert.class_);
  Alcotest.(check bool) "marked assumed" true acc.Cert.assumed;
  Alcotest.(check int) "pragma consumed: no findings" 0
    (List.length findings);
  (* The pragma names acc only; scratch keeps its honest Unknown. *)
  let scratch, _ = toy_cert ~pragma leak_body "scratch" in
  Alcotest.(check string) "scratch still unknown" "unknown"
    (Cert.class_name scratch.Cert.class_)

let test_toy_pragma_unknown_class () =
  let pragma = "(* guard: assume rough acc — only smooth is assumable *)" in
  match toy_certs ~pragma leak_body with
  | _, [ f ] ->
      Alcotest.(check string) "error severity" "error"
        (Finding.severity_name f.Finding.severity)
  | _, fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_toy_pragma_unused_warns () =
  let pragma =
    "(* guard: assume smooth nonexistent — covers no declaration *)"
  in
  match toy_certs ~pragma leak_body with
  | _, [ f ] ->
      Alcotest.(check string) "warning severity" "warning"
        (Finding.severity_name f.Finding.severity)
  | _, fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* IS falsifier golden witnesses                                       *)
(* ------------------------------------------------------------------ *)

(* The bucket ranks: perturbing bucket_ptrs just before full_verify
   must change the verification sum — the concrete element class the
   certificate's Subscript/Compare sites predict. *)
let test_is_bucket_ptrs_witness () =
  let (module A) = find_app "is" in
  let targets =
    [
      {
        Falsifier.t_var = "bucket_ptrs";
        t_kind = Criticality.Int_var;
        t_candidates = Array.init 512 Fun.id;
      };
    ]
  in
  let o =
    Falsifier.run ~boundary:A.analysis_niter ~niter:A.analysis_niter
      ~trials:40 ~seed:11 ~targets
      (module A : App.S)
  in
  Alcotest.(check bool) "continuation stable" true o.Falsifier.f_stable;
  Alcotest.(check bool) "bucket_ptrs falsified" true
    (o.Falsifier.f_witnesses <> []);
  List.iter
    (fun (w : Falsifier.witness) ->
      Alcotest.(check string) "witness names bucket_ptrs" "bucket_ptrs"
        w.Falsifier.w_var)
    o.Falsifier.f_witnesses

(* iter_done gates full_verify: every perturbation at the final
   boundary skips the verification and diverges. *)
let test_is_iteration_witness () =
  let (module A) = find_app "is" in
  let targets =
    [
      {
        Falsifier.t_var = "iteration";
        t_kind = Criticality.Int_var;
        t_candidates = [| 0 |];
      };
    ]
  in
  let o =
    Falsifier.run ~boundary:A.analysis_niter ~niter:A.analysis_niter ~trials:6
      ~seed:5 ~targets
      (module A : App.S)
  in
  Alcotest.(check bool) "continuation stable" true o.Falsifier.f_stable;
  Alcotest.(check int) "every trial a witness" 6
    (List.length o.Falsifier.f_witnesses)

(* key_array from a cold boundary is the other face of the coin:
   [Control_tainted] certifies that the criterion is unsound, not that
   every element is critical.  Perturbing a mid-range key merely
   re-buckets it — the distribution is recomputed from the perturbed
   key and every verification check stays self-consistent, so
   passed_verification does not move.  The falsifier must report
   exactly that (no manufactured witnesses), which is what lets the
   gate's Smooth-validation phase trust an empty witness list. *)
let test_is_key_array_no_junk_witness () =
  let (module A) = find_app "is" in
  let targets =
    [
      {
        Falsifier.t_var = "key_array";
        t_kind = Criticality.Int_var;
        (* Skip the first elements: ranks replant indices 1..20. *)
        t_candidates = Array.init 100 (fun i -> 4096 + i);
      };
    ]
  in
  let o =
    Falsifier.run ~boundary:0 ~niter:A.analysis_niter ~trials:25 ~seed:3
      ~targets
      (module A : App.S)
  in
  Alcotest.(check bool) "continuation stable" true o.Falsifier.f_stable;
  Alcotest.(check int) "trials ran" 25 o.Falsifier.f_trials;
  Alcotest.(check (list string))
    "re-bucketing is self-consistent: no witnesses" []
    (List.map (fun w -> w.Falsifier.w_var) o.Falsifier.f_witnesses)

(* ------------------------------------------------------------------ *)
(* Smooth certificates are never falsified (qcheck, random boundary)   *)
(* ------------------------------------------------------------------ *)

let report_cache : (string, Criticality.report) Hashtbl.t = Hashtbl.create 4

let report_of name (module A : App.S) =
  match Hashtbl.find_opt report_cache name with
  | Some r -> r
  | None ->
      let r = Analyzer.run (module A : App.S) in
      Hashtbl.add report_cache name r;
      r

let prop_smooth_never_falsified =
  QCheck.Test.make ~count:6 ~name:"Smooth variables never falsified"
    QCheck.(pair (oneofl [ "cg"; "mg"; "ep" ]) (pair (int_bound 1) small_nat))
    (fun (name, (boundary, seed)) ->
      let (module A) = find_app name in
      let cs, _ = certs () in
      let smooth =
        match Cert.find_app cs ~app:name with
        | Some ac -> Cert.smooth_vars ac
        | None -> []
      in
      let report = report_of name (module A : App.S) in
      let targets =
        List.filter
          (fun t -> List.mem t.Falsifier.t_var smooth)
          (Falsifier.targets_of_report report)
      in
      let o =
        Falsifier.run ~boundary ~niter:A.analysis_niter ~trials:12 ~seed
          ~targets
          (module A : App.S)
      in
      (not o.Falsifier.f_stable) || o.Falsifier.f_witnesses = [])

(* ------------------------------------------------------------------ *)
(* Mask hardening                                                      *)
(* ------------------------------------------------------------------ *)

let test_harden_promotes_witnesses () =
  let shape = Scvad_nd.Shape.create [ 4 ] in
  let report =
    {
      Criticality.app = "toy";
      at_iteration = 0;
      analyzed_until = 1;
      mode = Criticality.Reverse_gradient;
      tape_nodes = 0;
      tape_profile = None;
      sweep_profile = None;
      vars =
        [
          Criticality.of_mask ~name:"a" ~shape ~spe:1
            ~kind:Criticality.Float_var
            [| true; false; false; false |];
        ];
    }
  in
  let w =
    {
      Falsifier.w_var = "a";
      w_kind = Criticality.Float_var;
      w_element = 2;
      w_boundary = 0;
      w_delta = 1e-6;
      w_fd = None;
      w_golden = 0.;
      w_perturbed = 1.;
    }
  in
  let hardened = Falsifier.harden report [ w ] in
  let a = Criticality.find hardened "a" in
  Alcotest.(check (list bool))
    "element 2 promoted"
    [ true; false; true; false ]
    (Array.to_list a.Criticality.mask);
  (* The input report is untouched. *)
  let orig = Criticality.find report "a" in
  Alcotest.(check (list bool))
    "input masks unchanged"
    [ true; false; false; false ]
    (Array.to_list orig.Criticality.mask)

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cs, findings = certs () in
  let json = Driver.render_json cs findings in
  let back = Driver.certs_of_json json in
  Alcotest.(check bool) "certificates survive the round-trip" true (back = cs)

let test_json_rejects_garbage () =
  match Driver.certs_of_json "{\"apps\": [{\"app\": 3}]}" with
  | _ -> Alcotest.fail "garbage accepted"
  | exception Failure _ -> ()

let suites =
  [
    ( "guard.static",
      [
        Alcotest.test_case "golden certificate table (8 apps)" `Quick
          test_golden_table;
        Alcotest.test_case "IS escape sites" `Quick test_is_escape_sites;
        Alcotest.test_case "smooth toy kernel" `Quick test_toy_smooth;
        Alcotest.test_case "branch escape" `Quick test_toy_branch_escape;
        Alcotest.test_case "int-conversion escape" `Quick
          test_toy_conversion_escape;
        Alcotest.test_case "kink escape" `Quick test_toy_kink_escape;
        Alcotest.test_case "laundered taint still escapes" `Quick
          test_toy_laundered_taint;
        Alcotest.test_case "leak is unknown" `Quick test_toy_leak_is_unknown;
        Alcotest.test_case "pragma rescues a leak" `Quick
          test_toy_pragma_rescues_leak;
        Alcotest.test_case "pragma rejects unknown class" `Quick
          test_toy_pragma_unknown_class;
        Alcotest.test_case "unused pragma warns" `Quick
          test_toy_pragma_unused_warns;
        Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "JSON parser rejects garbage" `Quick
          test_json_rejects_garbage;
      ] );
    ( "guard.falsifier",
      [
        Alcotest.test_case "IS bucket ranks falsified at the last boundary"
          `Quick test_is_bucket_ptrs_witness;
        Alcotest.test_case "IS iteration gate falsified" `Quick
          test_is_iteration_witness;
        Alcotest.test_case "IS key_array re-bucketing yields no junk witness"
          `Quick test_is_key_array_no_junk_witness;
        Alcotest.test_case "harden promotes witnesses" `Quick
          test_harden_promotes_witnesses;
        QCheck_alcotest.to_alcotest prop_smooth_never_falsified;
      ] );
  ]
