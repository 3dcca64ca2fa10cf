(* Loading OCaml sources for the static passes: read a file, parse it
   with compiler-libs (syntax errors become findings), list a
   directory's [.ml] files in a stable order, fold a per-file pass over
   a file list, and find a directory of the repo from anywhere inside
   it. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception Syntaxerr.Error _ ->
      Error
        {
          Finding.rule = Finding.Syntax;
          file;
          line = lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum;
          message = "syntax error: the file does not parse";
          severity = Finding.Error;
        }
  | exception Lexer.Error (_, loc) ->
      Error
        {
          Finding.rule = Finding.Syntax;
          file;
          line = loc.Location.loc_start.Lexing.pos_lnum;
          message = "lexing error: the file does not parse";
          severity = Finding.Error;
        }

let ml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let analyze_files analyze_source files =
  List.fold_left
    (fun (apps, findings) file ->
      let app, fs = analyze_source ~file (read_file file) in
      let apps = match app with Some a -> apps @ [ a ] | None -> apps in
      (apps, findings @ fs))
    ([], []) files

(* Walk up from [cwd] (or the current directory) to the dune-project
   root, so the tools work from any build or sandbox directory. *)
let locate ?cwd rel =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then
      let d = Filename.concat dir rel in
      if Sys.file_exists d && Sys.is_directory d then Some d else None
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (match cwd with Some d -> d | None -> Sys.getcwd ())
