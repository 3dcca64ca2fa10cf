(* The racefree driver: load the scanned tree, run the interprocedural
   escape/effect interpreter, and classify every [Pool.map]/[Pool.init]
   fan-out site.

   Classification of one closure flow:
   - any unmet obligation forces [Unknown] — the pass never guesses;
   - writes to [Ext] (captured) roots are grouped per target; a group
     whose every write is index-affine goes to {!Disjoint.decide}
     (proving the per-element sharding pattern), anything else is a
     [Shared_write] with concrete file:line witnesses;
   - otherwise the flow is race-free, and the proof records how many
     writes landed in per-shard allocations ([Fresh]), how many on the
     shard's own datum ([Shard]), the affine-lane facts, and the named
     premises (module / accessor contracts, trusted runtime) the
     evaluation leaned on.

   Site verdicts fold over their flows with {!Verdict.worse} — one bad
   closure taints the site.  [(* racefree: assume disjoint <context> *)]
   pragmas then downgrade [Unknown]/[Shared_write] to [Assumed],
   keeping the assumption visible in the report. *)

module Finding = Scvad_lint.Finding
module Ljson = Scvad_util.Ljson

type report = {
  r_sites : Verdict.classified list;  (** discovery order *)
  r_findings : Finding.t list;
}

let locate_lib_dir ?cwd () = Scvad_lint.Source.locate ?cwd "lib"

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let classify_flow (fl : Verdict.flow) : Verdict.verdict =
  let s = fl.Verdict.fl_summary in
  match s.Effects.sm_obligations with
  | _ :: _ -> Verdict.Unknown s.Effects.sm_obligations
  | [] ->
      let ext = Effects.ext_writes s in
      (* Group captured-target writes by root. *)
      let groups =
        List.fold_left
          (fun acc (w : Effects.write) ->
            let name = Effects.root_name w.Effects.wr_root in
            match List.assoc_opt name acc with
            | Some ws -> (name, w :: ws) :: List.remove_assoc name acc
            | None -> (name, [ w ]) :: acc)
          [] ext
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let affine, shared =
        List.fold_left
          (fun (affine, shared) (name, ws) ->
            let regions =
              List.map (fun (w : Effects.write) -> w.Effects.wr_region) ws
            in
            match Disjoint.decide regions with
            | Disjoint.Disjoint _ as d -> ((name, d) :: affine, shared)
            | Disjoint.May_collide _ ->
                ( affine,
                  List.map
                    (fun (w : Effects.write) ->
                      {
                        Verdict.sh_site = Effects.write_site w;
                        sh_what =
                          Printf.sprintf "%s -> %s [%s]" w.Effects.wr_what
                            name
                            (Effects.region_name w.Effects.wr_region);
                      })
                    ws
                  @ shared ))
          ([], []) groups
      in
      if shared <> [] then Verdict.Shared_write (List.rev shared)
      else
        Verdict.Race_free
          {
            Verdict.p_fresh = List.length (Effects.fresh_writes s);
            p_shard = List.length (Effects.shard_writes s);
            p_affine = List.rev affine;
            p_premises = s.Effects.sm_premises;
          }

let classify_site (site : Verdict.site) (flows : Verdict.flow list) :
    Verdict.classified =
  let verdict =
    match flows with
    | [] ->
        Verdict.Unknown
          [ "no closure flow reached this site from any entry point" ]
    | fs ->
        List.fold_left
          (fun acc fl -> Verdict.worse acc (classify_flow fl))
          (classify_flow (List.hd fs))
          (List.tl fs)
  in
  { Verdict.c_site = site; c_flows = flows; c_verdict = verdict }

(* ------------------------------------------------------------------ *)
(* Pragmas                                                             *)
(* ------------------------------------------------------------------ *)

let apply_pragma pragmas (c : Verdict.classified) =
  match c.Verdict.c_verdict with
  | Verdict.Race_free _ | Verdict.Assumed _ -> c
  | Verdict.Shared_write _ | Verdict.Unknown _ -> (
      match
        Rfpragma.assume pragmas ~context:c.Verdict.c_site.Verdict.st_context
          ~line:c.Verdict.c_site.Verdict.st_line
      with
      | Some (_, why) -> { c with Verdict.c_verdict = Verdict.Assumed why }
      | None -> c)

(* ------------------------------------------------------------------ *)
(* Certification                                                       *)
(* ------------------------------------------------------------------ *)

let certify ~root =
  let model, findings = Rmodel.load ~root in
  let result = Interp.run model in
  let flows_of site =
    List.filter_map
      (fun (a : Interp.analyzed_flow) ->
        if Verdict.site_key a.Interp.a_site = Verdict.site_key site then
          Some a.Interp.a_flow
        else None)
      result.Interp.flows
  in
  let classified =
    List.map (fun site -> classify_site site (flows_of site)) result.Interp.sites
  in
  (* One pragma table per site file; unused-pragma warnings come from
     every scanned file so stale assumptions surface even when their
     site disappeared. *)
  let tables = Hashtbl.create 8 in
  let pragma_findings = ref [] in
  let table_for file =
    match Hashtbl.find_opt tables file with
    | Some t -> t
    | None ->
        let t, errs =
          try Rfpragma.scan ~file (Scvad_lint.Source.read_file file)
          with Sys_error _ -> Rfpragma.scan ~file ""
        in
        pragma_findings := !pragma_findings @ errs;
        Hashtbl.replace tables file t;
        t
  in
  let classified =
    List.map
      (fun (c : Verdict.classified) ->
        apply_pragma (table_for c.Verdict.c_site.Verdict.st_file) c)
      classified
  in
  let unused =
    Hashtbl.fold (fun _ t acc -> acc @ Rfpragma.unused t) tables []
  in
  {
    r_sites = classified;
    r_findings = findings @ !pragma_findings @ unused;
  }

let count report name =
  List.length
    (List.filter
       (fun (c : Verdict.classified) ->
         Verdict.verdict_name c.Verdict.c_verdict = name)
       report.r_sites)

let gate_violations report =
  List.filter
    (fun c -> not (Verdict.gate_ok c))
    report.r_sites

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_text (report : report) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (c : Verdict.classified) ->
      let s = c.Verdict.c_site in
      Buffer.add_string b
        (Printf.sprintf "%s: %s\n" (Verdict.site_to_text s)
           (Verdict.verdict_name c.Verdict.c_verdict));
      List.iter
        (fun (fl : Verdict.flow) ->
          Buffer.add_string b
            (Printf.sprintf "  flow %s via %s\n" (Verdict.flow_origin fl)
               fl.Verdict.fl_via))
        c.Verdict.c_flows;
      (match c.Verdict.c_verdict with
      | Verdict.Race_free p ->
          Buffer.add_string b
            (Printf.sprintf
               "  proof: %d fresh write(s), %d shard write(s)\n"
               p.Verdict.p_fresh p.Verdict.p_shard);
          List.iter
            (fun (target, o) ->
              Buffer.add_string b
                (Printf.sprintf "  lane %s: %s\n" target (Disjoint.explain o)))
            p.Verdict.p_affine;
          List.iter
            (fun pr ->
              Buffer.add_string b (Printf.sprintf "  premise: %s\n" pr))
            p.Verdict.p_premises
      | Verdict.Assumed why ->
          Buffer.add_string b (Printf.sprintf "  assumed: %s\n" why)
      | Verdict.Shared_write ws ->
          List.iter
            (fun (w : Verdict.shared) ->
              Buffer.add_string b
                (Printf.sprintf "  write %s: %s\n" w.Verdict.sh_site
                   w.Verdict.sh_what))
            ws
      | Verdict.Unknown obs ->
          List.iter
            (fun o ->
              Buffer.add_string b (Printf.sprintf "  obligation: %s\n" o))
            obs))
    report.r_sites;
  List.iter
    (fun f -> Buffer.add_string b (Finding.to_text f ^ "\n"))
    report.r_findings;
  Buffer.add_string b
    (Printf.sprintf
       "%d fan-out site(s): %d race-free, %d assumed, %d shared-write, %d \
        unknown.\n"
       (List.length report.r_sites)
       (count report "race-free") (count report "assumed")
       (count report "shared-write")
       (count report "unknown"));
  Buffer.contents b

let json_of_site (c : Verdict.classified) =
  let s = c.Verdict.c_site in
  let verdict_fields =
    match c.Verdict.c_verdict with
    | Verdict.Race_free p ->
        [
          ("fresh_writes", Ljson.Int p.Verdict.p_fresh);
          ("shard_writes", Ljson.Int p.Verdict.p_shard);
          ( "lanes",
            Ljson.Arr
              (List.map
                 (fun (target, o) ->
                   Ljson.Obj
                     [
                       ("target", Ljson.Str target);
                       ("outcome", Ljson.Str (Disjoint.explain o));
                     ])
                 p.Verdict.p_affine) );
          ( "premises",
            Ljson.Arr
              (List.map (fun p -> Ljson.Str p) p.Verdict.p_premises) );
        ]
    | Verdict.Assumed why -> [ ("justification", Ljson.Str why) ]
    | Verdict.Shared_write ws ->
        [
          ( "writes",
            Ljson.Arr
              (List.map
                 (fun (w : Verdict.shared) ->
                   Ljson.Obj
                     [
                       ("site", Ljson.Str w.Verdict.sh_site);
                       ("what", Ljson.Str w.Verdict.sh_what);
                     ])
                 ws) );
        ]
    | Verdict.Unknown obs ->
        [
          ( "obligations",
            Ljson.Arr (List.map (fun o -> Ljson.Str o) obs) );
        ]
  in
  Ljson.Obj
    ([
       ("file", Ljson.Str s.Verdict.st_file);
       ("line", Ljson.Int s.Verdict.st_line);
       ("kind", Ljson.Str (Verdict.site_kind_name s.Verdict.st_kind));
       ("context", Ljson.Str s.Verdict.st_context);
       ("verdict", Ljson.Str (Verdict.verdict_name c.Verdict.c_verdict));
       ( "flows",
         Ljson.Arr
           (List.map
              (fun (fl : Verdict.flow) ->
                Ljson.Obj
                  [
                    ("def", Ljson.Str (Verdict.flow_origin fl));
                    ("via", Ljson.Str fl.Verdict.fl_via);
                  ])
              c.Verdict.c_flows) );
     ]
    @ verdict_fields)

let json_of_finding (f : Finding.t) =
  Ljson.Obj
    [
      ("rule", Ljson.Str (Finding.rule_name f.Finding.rule));
      ("file", Ljson.Str f.Finding.file);
      ("line", Ljson.Int f.Finding.line);
      ("severity", Ljson.Str (Finding.severity_name f.Finding.severity));
      ("message", Ljson.Str f.Finding.message);
    ]

let render_json (report : report) =
  Ljson.to_string
    (Ljson.Obj
       [
         ("version", Ljson.Int 1);
         ("sites", Ljson.Arr (List.map json_of_site report.r_sites));
         ("race_free", Ljson.Int (count report "race-free"));
         ("assumed", Ljson.Int (count report "assumed"));
         ("shared_write", Ljson.Int (count report "shared-write"));
         ("unknown", Ljson.Int (count report "unknown"));
         ( "findings",
           Ljson.Arr (List.map json_of_finding report.r_findings) );
       ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* JSON parse-back (fixture round-trip, report archaeology)            *)
(* ------------------------------------------------------------------ *)

type site_row = {
  j_file : string;
  j_line : int;
  j_kind : Verdict.site_kind;
  j_context : string;
  j_verdict : string;
}

let jstr key j =
  match Ljson.member key j with
  | Some (Ljson.Str s) -> s
  | _ -> failwith (Printf.sprintf "sites_of_json: missing string %S" key)

let jint key j =
  match Ljson.member key j with
  | Some (Ljson.Int n) -> n
  | _ -> failwith (Printf.sprintf "sites_of_json: missing int %S" key)

let sites_of_json s =
  let j = Ljson.of_string s in
  match Ljson.member "sites" j with
  | Some (Ljson.Arr rows) ->
      List.map
        (fun row ->
          {
            j_file = jstr "file" row;
            j_line = jint "line" row;
            j_kind =
              (match Verdict.site_kind_of_name (jstr "kind" row) with
              | Some k -> k
              | None -> failwith "sites_of_json: unknown site kind");
            j_context = jstr "context" row;
            j_verdict = jstr "verdict" row;
          })
        rows
  | _ -> failwith "sites_of_json: missing array \"sites\""
