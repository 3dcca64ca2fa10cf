(* The guard driver: project the {!Scvad_activity.Frontend}'s walk of
   an NPB kernel (kill and reach facts, escape sites, leaks) onto one
   {!Cert.var_cert} per checkpoint variable.

   The certificate rule (soundness argument in DESIGN.md §12):

   float variables
   - first-effect [Untouched]/[Killed]  -> Smooth: the checkpointed
     value is provably never consumed in the cone, so no escape can
     involve it (the kill discount trumps recorded escapes — EP's
     buffer is branched on, but only post-overwrite values are);
   - an escape site whose closed taint meets the backing field
                                        -> Control_tainted, sites kept;
   - taint leaked to an unknown callee  -> Unknown (the unseen code
     could compare it; only a pragma — still falsifier-tested — may
     assume smoothness);
   - otherwise                          -> Smooth: every resolved flow
     from the field to the output is smooth scalar arithmetic.

   integer variables
   - declared [Always_critical]         -> Control_tainted by decree
     (the AD criterion is never consulted for them);
   - [Untouched]/[Killed]               -> Smooth;
   - an escape site                     -> Control_tainted;
   - the field reaches the output       -> Control_tainted: integer
     dataflow enters AD as a constant, so a zero derivative is
     structural, not informative (IS's passed_verification flows to
     the output through plain adds and never syntactically escapes —
     this rule is what catches it);
   - leaked                             -> Unknown;
   - otherwise                          -> Smooth. *)

module Model = Scvad_activity.Model
module Absint = Scvad_activity.Absint
module Source = Scvad_lint.Source
module Frontend = Scvad_activity.Frontend
module Verdict = Scvad_activity.Verdict
module Finding = Scvad_lint.Finding
module Ljson = Scvad_util.Ljson

(* ------------------------------------------------------------------ *)
(* Certificate assembly                                                *)
(* ------------------------------------------------------------------ *)

let field_sites (a : Absint.outcome) f =
  List.filter_map
    (fun (site, taint) -> if Absint.SS.mem f taint then Some site else None)
    a.Absint.o_escapes

(* Base certificate before pragmas. *)
let base_cert outcome (v : Model.var_decl) =
  let declared = v.Model.v_declared_critical in
  match (v.Model.v_field, outcome) with
  | _ when declared <> None && v.Model.v_kind = Verdict.Int_var ->
      ( Cert.Control_tainted,
        [],
        false,
        Printf.sprintf
          "declared Always_critical (%s): the derivative criterion is never \
           consulted"
          (Option.value declared ~default:"declared") )
  | None, _ ->
      (Cert.Unknown, [], false, "declaration not bound to a unique state field")
  | Some _, Error _ -> (Cert.Unknown, [], false, "analysis incomplete")
  | Some f, Ok a -> (
      let reaches = Absint.SS.mem f a.Absint.o_reaches in
      match List.assoc_opt f a.Absint.o_status with
      | Some Absint.Untouched ->
          ( Cert.Smooth,
            [],
            reaches,
            "never read in the post-checkpoint cone: no flow can escape" )
      | Some Absint.Killed ->
          ( Cert.Smooth,
            [],
            reaches,
            "fully overwritten before any read: only post-overwrite values \
             reach discrete consumers" )
      | _ -> (
          match field_sites a f with
          | _ :: _ as sites ->
              ( Cert.Control_tainted,
                sites,
                reaches,
                Printf.sprintf "%d escape site(s) on the run->output cone"
                  (List.length sites) )
          | [] ->
              if v.Model.v_kind = Verdict.Int_var && reaches then
                ( Cert.Control_tainted,
                  [],
                  reaches,
                  "integer dataflow reaches the output: it enters AD as a \
                   constant, so a zero derivative is structural" )
              else if Absint.SS.mem f a.Absint.o_leaked then
                ( Cert.Unknown,
                  [],
                  reaches,
                  "taint leaked into an external callee the pass cannot see" )
              else
                ( Cert.Smooth,
                  [],
                  reaches,
                  "every resolved flow to the output is smooth scalar \
                   arithmetic" )))

let var_cert ~pragmas outcome (v : Model.var_decl) =
  let class_, sites, reaches, reason = base_cert outcome v in
  let class_, reason, assumed =
    match Gpragma.assume pragmas ~var:v.Model.v_name ~line:v.Model.v_line with
    | None -> (class_, reason, false)
    | Some why ->
        (Cert.Smooth, Printf.sprintf "assumed smooth via pragma: %s" why, true)
  in
  {
    Cert.var = v.Model.v_name;
    kind = v.Model.v_kind;
    class_;
    sites;
    reaches_output = reaches;
    elements = v.Model.v_elements;
    reason;
    assumed;
  }

(* [analyze_source ~file source] is [None] when the file declares no
   NPB app (shared modules); findings carry pragma problems either
   way. *)
let analyze_source =
  Frontend.analyze_source ~scan:Gpragma.scan ~unused:Gpragma.unused
    (fun pragmas { Frontend.app; model = m; outcome } ->
      let notes =
        match outcome with
        | Ok o -> o.Absint.o_escape_notes
        | Error msg ->
            [
              Printf.sprintf "activity analysis incomplete: %s" msg;
              Printf.sprintf "escape analysis incomplete: %s" msg;
            ]
      in
      {
        Cert.app;
        source = m.Model.file;
        resolved = Result.is_ok outcome;
        certs = List.map (var_cert ~pragmas outcome) m.Model.vars;
        notes = List.rev m.Model.notes @ notes;
      })

let analyze_file file = analyze_source ~file (Source.read_file file)
let analyze_files files = Source.analyze_files analyze_source files
let analyze_dir dir = analyze_files (Source.ml_files dir)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_text (cs : Cert.certificates) (findings : Finding.t list) =
  let b = Buffer.create 2048 in
  List.iter
    (fun (a : Cert.app_certs) ->
      Buffer.add_string b
        (Printf.sprintf "%s (%s)%s\n" a.Cert.app a.Cert.source
           (if a.Cert.resolved then "" else "  [unresolved]"));
      List.iter
        (fun (v : Cert.var_cert) ->
          Buffer.add_string b
            (Printf.sprintf "  %-20s %-5s %-15s — %s%s\n" v.Cert.var
               (Verdict.kind_name v.Cert.kind)
               (Cert.class_name v.Cert.class_)
               v.Cert.reason
               (if v.Cert.assumed then " [assumed]" else ""));
          List.iter
            (fun s ->
              Buffer.add_string b
                (Printf.sprintf "      escape %s\n" (Cert.site_to_string s)))
            v.Cert.sites)
        a.Cert.certs;
      List.iter
        (fun n -> Buffer.add_string b (Printf.sprintf "  note: %s\n" n))
        a.Cert.notes)
    cs;
  List.iter
    (fun f -> Buffer.add_string b (Finding.to_text f ^ "\n"))
    findings;
  Buffer.add_string b
    (Printf.sprintf
       "%d app%s certified: %d smooth, %d control-tainted, %d unknown \
        variable(s).\n"
       (List.length cs)
       (if List.length cs = 1 then "" else "s")
       (Cert.count_class cs Cert.Smooth)
       (Cert.count_class cs Cert.Control_tainted)
       (Cert.count_class cs Cert.Unknown));
  Buffer.contents b

let json_of_site (s : Cert.site) =
  Ljson.Obj
    [
      ("file", Ljson.Str s.Cert.s_file);
      ("line", Ljson.Int s.Cert.s_line);
      ("kind", Ljson.Str (Cert.escape_kind_name s.Cert.s_kind));
      ("detail", Ljson.Str s.Cert.s_detail);
    ]

let json_of_cert (v : Cert.var_cert) =
  Ljson.Obj
    [
      ("var", Ljson.Str v.Cert.var);
      ("kind", Ljson.Str (Verdict.kind_name v.Cert.kind));
      ("class", Ljson.Str (Cert.class_name v.Cert.class_));
      ("sites", Ljson.Arr (List.map json_of_site v.Cert.sites));
      ("reaches_output", Ljson.Bool v.Cert.reaches_output);
      ( "elements",
        match v.Cert.elements with Some n -> Ljson.Int n | None -> Ljson.Null
      );
      ("reason", Ljson.Str v.Cert.reason);
      ("assumed", Ljson.Bool v.Cert.assumed);
    ]

let json_of_certs (cs : Cert.certificates) (findings : Finding.t list) =
  Ljson.Obj
    [
      ("version", Ljson.Int 1);
      ( "apps",
        Ljson.Arr
          (List.map
             (fun (a : Cert.app_certs) ->
               Ljson.Obj
                 [
                   ("app", Ljson.Str a.Cert.app);
                   ("source", Ljson.Str a.Cert.source);
                   ("resolved", Ljson.Bool a.Cert.resolved);
                   ("vars", Ljson.Arr (List.map json_of_cert a.Cert.certs));
                   ( "notes",
                     Ljson.Arr (List.map (fun n -> Ljson.Str n) a.Cert.notes)
                   );
                 ])
             cs) );
      ("smooth", Ljson.Int (Cert.count_class cs Cert.Smooth));
      ( "control_tainted",
        Ljson.Int (Cert.count_class cs Cert.Control_tainted) );
      ("unknown", Ljson.Int (Cert.count_class cs Cert.Unknown));
      ("findings", Ljson.Arr (List.map Finding.to_json findings));
    ]

let render_json (cs : Cert.certificates) (findings : Finding.t list) =
  Ljson.to_string (json_of_certs cs findings) ^ "\n"

(* ------------------------------------------------------------------ *)
(* JSON parse-back (fixture round-trip, --baseline regression gate)    *)
(* ------------------------------------------------------------------ *)

let jstr key j =
  match Ljson.member key j with
  | Some (Ljson.Str s) -> s
  | _ -> failwith (Printf.sprintf "certs_of_json: missing string %S" key)

let jint key j =
  match Ljson.member key j with
  | Some (Ljson.Int n) -> n
  | _ -> failwith (Printf.sprintf "certs_of_json: missing int %S" key)

let jbool key j =
  match Ljson.member key j with
  | Some (Ljson.Bool v) -> v
  | _ -> failwith (Printf.sprintf "certs_of_json: missing bool %S" key)

let jarr key j =
  match Ljson.member key j with
  | Some (Ljson.Arr items) -> items
  | _ -> failwith (Printf.sprintf "certs_of_json: missing array %S" key)

let site_of_json j =
  let kind =
    match Cert.escape_kind_of_name (jstr "kind" j) with
    | Some k -> k
    | None -> failwith "certs_of_json: unknown escape kind"
  in
  {
    Cert.s_file = jstr "file" j;
    s_line = jint "line" j;
    s_kind = kind;
    s_detail = jstr "detail" j;
  }

let cert_of_json j =
  let class_ =
    match Cert.class_of_name (jstr "class" j) with
    | Some c -> c
    | None -> failwith "certs_of_json: unknown class"
  in
  let kind =
    match jstr "kind" j with
    | "float" -> Verdict.Float_var
    | "int" -> Verdict.Int_var
    | k -> failwith (Printf.sprintf "certs_of_json: unknown kind %S" k)
  in
  {
    Cert.var = jstr "var" j;
    kind;
    class_;
    sites = List.map site_of_json (jarr "sites" j);
    reaches_output = jbool "reaches_output" j;
    elements =
      (match Ljson.member "elements" j with
      | Some (Ljson.Int n) -> Some n
      | _ -> None);
    reason = jstr "reason" j;
    assumed = jbool "assumed" j;
  }

let certs_of_json s =
  let j = Ljson.of_string s in
  List.map
    (fun app ->
      {
        Cert.app = jstr "app" app;
        source = jstr "source" app;
        resolved = jbool "resolved" app;
        certs = List.map cert_of_json (jarr "vars" app);
        notes =
          List.map
            (function
              | Ljson.Str s -> s
              | _ -> failwith "certs_of_json: malformed note")
            (jarr "notes" app);
      })
    (jarr "apps" j)
