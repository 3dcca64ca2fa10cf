(* The discover driver: parse an NPB kernel with compiler-libs, extract
   the {!Scvad_activity.Model}, run the abstract interpreter (first
   effects, dependence edges, and the leak facts of the recomputability
   check), and rank every mutable state field with {!Rank.rank}.  The result is a
   proposed checkpoint set per app — discovery, where the rest of the
   tree only scrutinizes a hand-declared set. *)

module Model = Scvad_activity.Model
module Absint = Scvad_activity.Absint
module Source = Scvad_lint.Source
module Verdict = Scvad_activity.Verdict
module Finding = Scvad_lint.Finding
module Ljson = Scvad_util.Ljson

(* Pragma overrides: force the named field's verdict, mark it assumed.
   Axes keep their computed values — an assumption replaces the
   conclusion, not the evidence. *)
let apply_pragmas pragmas (f : Rank.field_rank) =
  match Dpragma.assume pragmas ~field:f.Rank.f_field with
  | None -> f
  | Some (verdict, why) ->
      {
        f with
        Rank.f_verdict = verdict;
        f_reason = Printf.sprintf "assumed %s via pragma: %s"
            (Rank.verdict_name verdict) why;
        f_assumed = true;
      }

(* [analyze_source ~file source] is [None] when the file declares no
   NPB app (shared modules); findings carry pragma problems either
   way. *)
let analyze_source ~file source =
  let pragmas, pragma_errors = Dpragma.scan ~file source in
  match Source.parse ~file source with
  | Error f -> (None, [ f ])
  | Ok ast -> (
      let m = Model.of_structure ~file ast in
      match m.Model.app_name with
      | None -> (None, pragma_errors)
      | Some app ->
          let absint, notes =
            match Absint.analyze m with
            | o -> (Some o, [])
            | exception Absint.Incomplete msg ->
                ( None,
                  [
                    Printf.sprintf "activity analysis incomplete: %s" msg;
                    Printf.sprintf "escape analysis incomplete: %s" msg;
                  ] )
          in
          let fields =
            List.map (apply_pragmas pragmas) (Rank.rank ?absint m)
          in
          let ar =
            {
              Rank.r_app = app;
              r_source = file;
              r_resolved = absint <> None;
              r_fields = fields;
              r_notes = List.rev m.Model.notes @ notes;
            }
          in
          (Some ar, pragma_errors @ Dpragma.unused pragmas))

let analyze_file file = analyze_source ~file (Source.read_file file)
let analyze_files files = Source.analyze_files analyze_source files
let analyze_dir dir = analyze_files (Source.ml_files dir)

let locate_npb_dir = Scvad_activity.Driver.locate_npb_dir

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let axes (f : Rank.field_rank) =
  Printf.sprintf "%c%c%c"
    (if f.Rank.f_live then 'L' else '-')
    (if f.Rank.f_reaches then 'O' else '-')
    (if f.Rank.f_recomputable then 'R' else '-')

let render_text (ps : Rank.proposals) (findings : Finding.t list) =
  let b = Buffer.create 2048 in
  List.iter
    (fun (a : Rank.app_ranks) ->
      Buffer.add_string b
        (Printf.sprintf "%s (%s)%s\n" a.Rank.r_app a.Rank.r_source
           (if a.Rank.r_resolved then "" else "  [unresolved]"));
      List.iter
        (fun (f : Rank.field_rank) ->
          Buffer.add_string b
            (Printf.sprintf "  %-20s %-10s %s %-22s — %s%s\n" f.Rank.f_field
               (match f.Rank.f_var with
               | Some v -> "var:" ^ v
               | None -> "undeclared")
               (axes f)
               (Rank.verdict_name f.Rank.f_verdict)
               f.Rank.f_reason
               (if f.Rank.f_assumed then " [assumed]" else "")))
        a.Rank.r_fields;
      Buffer.add_string b
        (Printf.sprintf "  proposed checkpoint set: {%s}\n"
           (String.concat ", " (Rank.discovered_fields a)));
      List.iter
        (fun n -> Buffer.add_string b (Printf.sprintf "  note: %s\n" n))
        a.Rank.r_notes)
    ps;
  List.iter
    (fun f -> Buffer.add_string b (Finding.to_text f ^ "\n"))
    findings;
  Buffer.add_string b
    (Printf.sprintf
       "%d app%s ranked: %d required, %d prunable-recomputable, %d \
        prunable-dead, %d unknown field(s).\n"
       (List.length ps)
       (if List.length ps = 1 then "" else "s")
       (Rank.count_verdict ps Rank.Required)
       (Rank.count_verdict ps Rank.Prunable_recomputable)
       (Rank.count_verdict ps Rank.Prunable_dead)
       (Rank.count_verdict ps Rank.Unknown));
  Buffer.contents b

let json_of_field (f : Rank.field_rank) =
  Ljson.Obj
    [
      ("field", Ljson.Str f.Rank.f_field);
      ( "var",
        match f.Rank.f_var with Some v -> Ljson.Str v | None -> Ljson.Null );
      ( "kind",
        match f.Rank.f_kind with
        | Some k -> Ljson.Str (Verdict.kind_name k)
        | None -> Ljson.Null );
      ( "elements",
        match f.Rank.f_elements with
        | Some n -> Ljson.Int n
        | None -> Ljson.Null );
      ("live", Ljson.Bool f.Rank.f_live);
      ("reaches_output", Ljson.Bool f.Rank.f_reaches);
      ("recomputable", Ljson.Bool f.Rank.f_recomputable);
      ("verdict", Ljson.Str (Rank.verdict_name f.Rank.f_verdict));
      ("reason", Ljson.Str f.Rank.f_reason);
      ("assumed", Ljson.Bool f.Rank.f_assumed);
    ]

let json_of_finding (f : Finding.t) =
  Ljson.Obj
    [
      ("rule", Ljson.Str (Finding.rule_name f.Finding.rule));
      ("file", Ljson.Str f.Finding.file);
      ("line", Ljson.Int f.Finding.line);
      ("severity", Ljson.Str (Finding.severity_name f.Finding.severity));
      ("message", Ljson.Str f.Finding.message);
    ]

let json_of_proposals (ps : Rank.proposals) (findings : Finding.t list) =
  Ljson.Obj
    [
      ("version", Ljson.Int 1);
      ( "apps",
        Ljson.Arr
          (List.map
             (fun (a : Rank.app_ranks) ->
               Ljson.Obj
                 [
                   ("app", Ljson.Str a.Rank.r_app);
                   ("source", Ljson.Str a.Rank.r_source);
                   ("resolved", Ljson.Bool a.Rank.r_resolved);
                   ( "fields",
                     Ljson.Arr (List.map json_of_field a.Rank.r_fields) );
                   ( "proposed",
                     Ljson.Arr
                       (List.map
                          (fun f -> Ljson.Str f)
                          (Rank.discovered_fields a)) );
                   ( "notes",
                     Ljson.Arr (List.map (fun n -> Ljson.Str n) a.Rank.r_notes)
                   );
                 ])
             ps) );
      ("required", Ljson.Int (Rank.count_verdict ps Rank.Required));
      ( "prunable_recomputable",
        Ljson.Int (Rank.count_verdict ps Rank.Prunable_recomputable) );
      ("prunable_dead", Ljson.Int (Rank.count_verdict ps Rank.Prunable_dead));
      ("unknown", Ljson.Int (Rank.count_verdict ps Rank.Unknown));
      ("findings", Ljson.Arr (List.map json_of_finding findings));
    ]

let render_json (ps : Rank.proposals) (findings : Finding.t list) =
  Ljson.to_string (json_of_proposals ps findings) ^ "\n"

(* ------------------------------------------------------------------ *)
(* JSON parse-back (fixture round-trip, report archaeology)            *)
(* ------------------------------------------------------------------ *)

let jstr key j =
  match Ljson.member key j with
  | Some (Ljson.Str s) -> s
  | _ -> failwith (Printf.sprintf "proposals_of_json: missing string %S" key)

let jbool key j =
  match Ljson.member key j with
  | Some (Ljson.Bool v) -> v
  | _ -> failwith (Printf.sprintf "proposals_of_json: missing bool %S" key)

let jarr key j =
  match Ljson.member key j with
  | Some (Ljson.Arr items) -> items
  | _ -> failwith (Printf.sprintf "proposals_of_json: missing array %S" key)

let field_of_json j =
  let verdict =
    match Rank.verdict_of_name (jstr "verdict" j) with
    | Some v -> v
    | None -> failwith "proposals_of_json: unknown verdict"
  in
  let kind =
    match Ljson.member "kind" j with
    | Some (Ljson.Str "float") -> Some Verdict.Float_var
    | Some (Ljson.Str "int") -> Some Verdict.Int_var
    | Some Ljson.Null | None -> None
    | Some _ -> failwith "proposals_of_json: unknown kind"
  in
  {
    Rank.f_field = jstr "field" j;
    f_var =
      (match Ljson.member "var" j with
      | Some (Ljson.Str v) -> Some v
      | _ -> None);
    f_kind = kind;
    f_elements =
      (match Ljson.member "elements" j with
      | Some (Ljson.Int n) -> Some n
      | _ -> None);
    f_live = jbool "live" j;
    f_reaches = jbool "reaches_output" j;
    f_recomputable = jbool "recomputable" j;
    f_verdict = verdict;
    f_reason = jstr "reason" j;
    f_assumed = jbool "assumed" j;
  }

let proposals_of_json s =
  let j = Ljson.of_string s in
  List.map
    (fun app ->
      {
        Rank.r_app = jstr "app" app;
        r_source = jstr "source" app;
        r_resolved = jbool "resolved" app;
        r_fields = List.map field_of_json (jarr "fields" app);
        r_notes =
          List.map
            (function
              | Ljson.Str s -> s
              | _ -> failwith "proposals_of_json: malformed note")
            (jarr "notes" app);
      })
    (jarr "apps" j)
