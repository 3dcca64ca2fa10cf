(* The shared minimal JSON module (lib/util): one printer/parser for
   every report writer in the tree. *)
module Ljson = Scvad_util.Ljson

type config = {
  domain_dirs : string list;
  pool_dirs : string list;
  unsafe_allow : (string * string) list;
  float_allow : (string * string) list;
}

let default_config =
  {
    domain_dirs =
      [
        "lib/npb"; "lib/solvers"; "lib/nprand"; "lib/ad"; "lib/ndarray";
        "lib/core";
      ];
    pool_dirs = [ "lib/par" ];
    unsafe_allow =
      [
        ( "lib/ad/tape.ml",
          "hot push/backward/reach loops; one up-front bounds check per \
           slab covers every access (DESIGN.md \xc2\xa79)" );
        ( "lib/checkpoint/crc32.ml",
          "slicing-by-8 CRC loop: table indices are masked to 8 bits and \
           every byte read is inside one up-front range check" );
      ];
    float_allow =
      [
        ( "lib/core/criticality.ml",
          "the paper's exact derivative = 0.0 criticality criterion \
           (\xc2\xa7III-A): bitwise float equality is the spec here" );
      ];
  }

type allow_note = {
  a_rule : Finding.rule;
  a_file : string;
  a_justification : string;
  a_uses : int;
}

type result = {
  findings : Finding.t list;
  suppressed : int;
  allow_notes : allow_note list;
}

(* ------------------------------------------------------------------ *)
(* Source discovery                                                    *)
(* ------------------------------------------------------------------ *)

let normalize path =
  if String.length path >= 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let rec walk acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if name = "" || name.[0] = '.' || name.[0] = '_' then acc
           else walk acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".ml" then normalize path :: acc
  else acc

let source_files paths =
  List.sort_uniq String.compare (List.fold_left walk [] paths)

let has_prefix ~prefix path =
  let np = String.length prefix and n = String.length path in
  np <= n && String.sub path 0 np = prefix

let in_dirs dirs path = List.exists (fun d -> has_prefix ~prefix:d path) dirs

(* ------------------------------------------------------------------ *)
(* Per-file pipeline: parse -> rules -> allowlists -> pragmas          *)
(* ------------------------------------------------------------------ *)

let lint_file config counts file =
  let source = Source.read_file file in
  let pragmas, pragma_errors = Pragma.scan ~file source in
  match Source.parse ~file source with
  | Error f -> (pragma_errors @ [ f ], 0)
  | Ok ast ->
      let raw =
        Rules.check
          ~domain_scope:(in_dirs config.domain_dirs file)
          ~pool_scope:(in_dirs config.pool_dirs file)
          ~file ast
      in
      let allowlisted (f : Finding.t) =
        let table =
          match f.Finding.rule with
          | Finding.Unsafe_access -> config.unsafe_allow
          | Finding.Float_equality -> config.float_allow
          | _ -> []
        in
        match List.assoc_opt f.Finding.file table with
        | Some _ ->
            let key = (f.Finding.rule, f.Finding.file) in
            Hashtbl.replace counts key
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts key));
            true
        | None -> false
      in
      let suppressed = ref 0 in
      let kept =
        List.filter
          (fun (f : Finding.t) ->
            if allowlisted f then false
            else if Pragma.allows pragmas f.Finding.rule ~line:f.Finding.line
            then begin
              incr suppressed;
              false
            end
            else true)
          raw
      in
      (pragma_errors @ kept @ Pragma.unused pragmas, !suppressed)

let lint_paths ?(config = default_config) paths =
  let files = source_files paths in
  let counts = Hashtbl.create 16 in
  let findings, suppressed =
    List.fold_left
      (fun (fs, n) file ->
        let file_findings, file_suppressed = lint_file config counts file in
        (file_findings @ fs, n + file_suppressed))
      ([], 0) files
  in
  let note rule (file, justification) =
    {
      a_rule = rule;
      a_file = file;
      a_justification = justification;
      a_uses =
        Option.value ~default:0 (Hashtbl.find_opt counts (rule, file));
    }
  in
  {
    findings = List.sort Finding.compare findings;
    suppressed;
    allow_notes =
      List.map (note Finding.Unsafe_access) config.unsafe_allow
      @ List.map (note Finding.Float_equality) config.float_allow;
  }

let has_errors r =
  List.exists (fun f -> f.Finding.severity = Finding.Error) r.findings

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_text r =
  let b = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string b (Finding.to_text f);
      Buffer.add_char b '\n')
    r.findings;
  if r.allow_notes <> [] then begin
    Buffer.add_string b "Allowlist (every entry must justify itself):\n";
    List.iter
      (fun n ->
        Buffer.add_string b
          (Printf.sprintf "  %s %s (%d use%s) \xe2\x80\x94 %s\n"
             (Finding.rule_name n.a_rule) n.a_file n.a_uses
             (if n.a_uses = 1 then "" else "s")
             n.a_justification))
      r.allow_notes
  end;
  let errors, warnings =
    List.partition (fun f -> f.Finding.severity = Finding.Error) r.findings
  in
  Buffer.add_string b
    (Printf.sprintf
       "%d finding%s (%d error%s, %d warning%s), %d suppressed by pragmas.\n"
       (List.length r.findings)
       (if List.length r.findings = 1 then "" else "s")
       (List.length errors)
       (if List.length errors = 1 then "" else "s")
       (List.length warnings)
       (if List.length warnings = 1 then "" else "s")
       r.suppressed);
  Buffer.contents b

let json_of_finding (f : Finding.t) =
  Ljson.Obj
    [
      ("rule", Ljson.Str (Finding.rule_name f.Finding.rule));
      ("file", Ljson.Str f.Finding.file);
      ("line", Ljson.Int f.Finding.line);
      ("severity", Ljson.Str (Finding.severity_name f.Finding.severity));
      ("message", Ljson.Str f.Finding.message);
    ]

let render_json r =
  Ljson.to_string
    (Ljson.Obj
       [
         ("findings", Ljson.Arr (List.map json_of_finding r.findings));
         ("suppressed", Ljson.Int r.suppressed);
         ( "allowlist",
           Ljson.Arr
             (List.map
                (fun n ->
                  Ljson.Obj
                    [
                      ("rule", Ljson.Str (Finding.rule_name n.a_rule));
                      ("file", Ljson.Str n.a_file);
                      ("justification", Ljson.Str n.a_justification);
                      ("uses", Ljson.Int n.a_uses);
                    ])
                r.allow_notes) );
       ])
  ^ "\n"

let finding_of_json j =
  let str key =
    match Ljson.member key j with
    | Some (Ljson.Str s) -> s
    | _ -> failwith (Printf.sprintf "finding_of_json: missing string %S" key)
  in
  let int key =
    match Ljson.member key j with
    | Some (Ljson.Int n) -> n
    | _ -> failwith (Printf.sprintf "finding_of_json: missing int %S" key)
  in
  let rule =
    match Finding.rule_of_name (str "rule") with
    | Some r -> r
    | None -> failwith "finding_of_json: unknown rule"
  in
  let severity =
    match Finding.severity_of_name (str "severity") with
    | Some s -> s
    | None -> failwith "finding_of_json: unknown severity"
  in
  {
    Finding.rule;
    file = str "file";
    line = int "line";
    message = str "message";
    severity;
  }

let findings_of_json s =
  match Ljson.member "findings" (Ljson.of_string s) with
  | Some (Ljson.Arr items) -> List.map finding_of_json items
  | _ -> failwith "findings_of_json: no findings array"
