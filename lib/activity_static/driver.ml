(* The static activity driver: project the {!Frontend}'s walk of an
   NPB kernel onto one {!Verdict.var_verdict} per checkpoint variable.

   The verdict rule (the soundness argument lives in DESIGN.md §11):

   - declared [Always_critical]       -> Statically_active (by decree);
   - first-effect status [Untouched]  -> Statically_inactive: the
     checkpointed value is never read in the [run]/[output] cone;
   - first-effect status [Killed]     -> Statically_inactive: every
     element is overwritten before any possible read;
   - [Mayread] and the backing field reaches the output sink
                                      -> Statically_active, with an
     interval refinement when the read footprint is affine;
   - [Mayread] without a resolved path to the output -> Unknown.  (A
     missing edge may be taint lost through an opaque value, so absence
     of a path is never promoted to an inactivity claim.) *)

module Finding = Scvad_lint.Finding
module Source = Scvad_lint.Source
module Ljson = Scvad_util.Ljson
module Regions = Scvad_checkpoint.Regions

(* ------------------------------------------------------------------ *)
(* Verdict assembly                                                    *)
(* ------------------------------------------------------------------ *)

let whole_var (v : Model.var_decl) =
  match v.Model.v_elements with
  | Some n when n > 0 -> [ { Regions.start = 0; stop = n } ]
  | _ -> Regions.empty

(* Base verdict before pragmas, from the interpreter outcome ([Error]
   when the app could not be interpreted at all). *)
let base_verdict outcome (v : Model.var_decl) =
  match v.Model.v_declared_critical with
  | Some why ->
      ( Verdict.Statically_active,
        Printf.sprintf "declared Always_critical (%s)" why,
        Regions.empty )
  | None -> (
      match outcome with
      | Error _ -> (Verdict.Unknown, "analysis incomplete", Regions.empty)
      | Ok o -> (
          match v.Model.v_field with
          | None ->
              ( Verdict.Unknown,
                "declaration not bound to a unique state field",
                Regions.empty )
          | Some f -> (
              match List.assoc_opt f o.Absint.o_status with
              | None ->
                  ( Verdict.Unknown,
                    Printf.sprintf "state field %s not tracked" f,
                    Regions.empty )
              | Some Absint.Untouched ->
                  ( Verdict.Statically_inactive,
                    "never read in the post-checkpoint cone",
                    whole_var v )
              | Some Absint.Killed ->
                  ( Verdict.Statically_inactive,
                    "fully overwritten before any read (kill-before-read)",
                    whole_var v )
              | Some Absint.Mayread ->
                  if Absint.SS.mem f o.Absint.o_reaches then
                    let refinement =
                      match
                        (v.Model.v_elements, List.assoc_opt f o.Absint.o_footprints)
                      with
                      | Some n, Some fp -> (
                          match Footprint.inactive_spans ~elements:n fp with
                          | Some r -> r
                          | None -> Regions.empty)
                      | _ -> Regions.empty
                    in
                    ( Verdict.Statically_active,
                      "read in the cone and may flow into the output",
                      refinement )
                  else
                    ( Verdict.Unknown,
                      "read in the cone; no resolved dependence path to the \
                       output (a path may exist through an opaque value)",
                      Regions.empty ))))

let var_verdict ~pragmas outcome (v : Model.var_decl) =
  let class_, reason, inactive = base_verdict outcome v in
  let class_, reason, inactive, assumed =
    match Apragma.assume pragmas ~var:v.Model.v_name ~line:v.Model.v_line with
    | None -> (class_, reason, inactive, false)
    | Some (cls, why) ->
        let inactive =
          if cls = Verdict.Statically_inactive then whole_var v
          else Regions.empty
        in
        (cls, Printf.sprintf "assumed via pragma: %s" why, inactive, true)
  in
  {
    Verdict.var = v.Model.v_name;
    kind = v.Model.v_kind;
    class_;
    elements = v.Model.v_elements;
    inactive;
    reason;
    assumed;
  }

(* [analyze_source ~file source] is [None] when the file declares no
   NPB app (shared modules like adi_common.ml); findings carry pragma
   problems either way. *)
let analyze_source =
  Frontend.analyze_source ~scan:Apragma.scan ~unused:Apragma.unused
    (fun pragmas { Frontend.app; model = m; outcome } ->
      let notes =
        match outcome with
        | Ok o -> o.Absint.o_notes
        | Error msg -> [ Printf.sprintf "analysis incomplete: %s" msg ]
      in
      {
        Verdict.app;
        source = m.Model.file;
        resolved = Result.is_ok outcome;
        vars = List.map (var_verdict ~pragmas outcome) m.Model.vars;
        notes = List.rev m.Model.notes @ notes;
      })

let analyze_file file = analyze_source ~file (Source.read_file file)
let analyze_files files = Source.analyze_files analyze_source files
let analyze_dir dir = analyze_files (Source.ml_files dir)

let locate_npb_dir ?cwd () = Source.locate ?cwd "lib/npb"

(* ------------------------------------------------------------------ *)
(* Soundness gate support                                              *)
(* ------------------------------------------------------------------ *)

(* [unsound_claims av ~masks] checks every inactivity claim of one app
   against dynamically-computed criticality masks ([true] = critical;
   one mask per variable, element-indexed).  Returns, per offending
   variable, the critical element indices that the static pass claimed
   inactive (capped at 8 per variable for reporting). *)
let unsound_claims (av : Verdict.app_verdicts) ~masks =
  List.filter_map
    (fun (v : Verdict.var_verdict) ->
      match List.assoc_opt v.Verdict.var masks with
      | None -> None
      | Some mask ->
          let bad = ref [] and nbad = ref 0 in
          let claim idx =
            if idx >= 0 && idx < Array.length mask && mask.(idx) then begin
              incr nbad;
              if !nbad <= 8 then bad := idx :: !bad
            end
          in
          (if v.Verdict.class_ = Verdict.Statically_inactive then
             Array.iteri (fun idx critical -> if critical then claim idx) mask
           else Regions.iter_elements v.Verdict.inactive claim);
          if !nbad = 0 then None
          else Some (v.Verdict.var, (!nbad, List.rev !bad)))
    av.Verdict.vars

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_text (vs : Verdict.verdicts) (findings : Finding.t list) =
  let b = Buffer.create 2048 in
  List.iter
    (fun (a : Verdict.app_verdicts) ->
      Buffer.add_string b
        (Printf.sprintf "%s (%s)%s\n" a.Verdict.app a.Verdict.source
           (if a.Verdict.resolved then "" else "  [unresolved]"));
      List.iter
        (fun (v : Verdict.var_verdict) ->
          let inactive =
            match Verdict.inactive_elements v with
            | 0 -> ""
            | n ->
                let nregions = Regions.count_regions v.Verdict.inactive in
                let shown =
                  if nregions <= 8 then Regions.to_string v.Verdict.inactive
                  else
                    let prefix =
                      List.filteri (fun i _ -> i < 4)
                        (Regions.spans v.Verdict.inactive)
                    in
                    Printf.sprintf "%s,… %d regions"
                      (Regions.to_string prefix) nregions
                in
                Printf.sprintf "  inactive %d%s [%s]" n
                  (match v.Verdict.elements with
                  | Some total -> Printf.sprintf "/%d" total
                  | None -> "")
                  shown
          in
          Buffer.add_string b
            (Printf.sprintf "  %-12s %-5s %-19s%s — %s%s\n" v.Verdict.var
               (Verdict.kind_name v.Verdict.kind)
               (Verdict.class_name v.Verdict.class_)
               inactive v.Verdict.reason
               (if v.Verdict.assumed then " [assumed]" else "")))
        a.Verdict.vars;
      List.iter
        (fun n -> Buffer.add_string b (Printf.sprintf "  note: %s\n" n))
        a.Verdict.notes)
    vs;
  List.iter
    (fun f -> Buffer.add_string b (Finding.to_text f ^ "\n"))
    findings;
  let inactive = Verdict.total_inactive_claims vs in
  Buffer.add_string b
    (Printf.sprintf "%d app%s analyzed, %d element%s proven inactive.\n"
       (List.length vs)
       (if List.length vs = 1 then "" else "s")
       inactive
       (if inactive = 1 then "" else "s"));
  Buffer.contents b

let json_of_spans (r : Regions.t) =
  Ljson.Arr
    (List.map
       (fun (s : Regions.span) -> Ljson.Arr [ Ljson.Int s.start; Ljson.Int s.stop ])
       (Regions.spans r))

let json_of_var (v : Verdict.var_verdict) =
  Ljson.Obj
    [
      ("var", Ljson.Str v.Verdict.var);
      ("kind", Ljson.Str (Verdict.kind_name v.Verdict.kind));
      ("class", Ljson.Str (Verdict.class_name v.Verdict.class_));
      ( "elements",
        match v.Verdict.elements with Some n -> Ljson.Int n | None -> Ljson.Null
      );
      ("inactive", json_of_spans v.Verdict.inactive);
      ("inactive_elements", Ljson.Int (Verdict.inactive_elements v));
      ("reason", Ljson.Str v.Verdict.reason);
      ("assumed", Ljson.Bool v.Verdict.assumed);
    ]

let render_json (vs : Verdict.verdicts) (findings : Finding.t list) =
  Ljson.to_string
    (Ljson.Obj
       [
         ("version", Ljson.Int 1);
         ( "apps",
           Ljson.Arr
             (List.map
                (fun (a : Verdict.app_verdicts) ->
                  Ljson.Obj
                    [
                      ("app", Ljson.Str a.Verdict.app);
                      ("source", Ljson.Str a.Verdict.source);
                      ("resolved", Ljson.Bool a.Verdict.resolved);
                      ("vars", Ljson.Arr (List.map json_of_var a.Verdict.vars));
                      ( "notes",
                        Ljson.Arr
                          (List.map (fun n -> Ljson.Str n) a.Verdict.notes) );
                    ])
                vs) );
         ("inactive_elements", Ljson.Int (Verdict.total_inactive_claims vs));
         ("findings", Ljson.Arr (List.map Finding.to_json findings));
       ])
  ^ "\n"
