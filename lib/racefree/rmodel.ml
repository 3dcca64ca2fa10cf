(* Whole-tree source model for the race-freedom pass.

   Unlike the per-kernel {!Scvad_activity.Model} (one NPB file at a
   time), the race pass is interprocedural across libraries: a closure
   passed to [Pool.map] in [lib/core] may be defined from values built
   in [lib/ad].  So the model here is the parsed forest of every [.ml]
   under the scanned roots, with a per-file table of top-level bindings
   (nested [module M = struct … end] bindings included, dotted), module
   aliases, and a global stem index for resolving [Tape.create]-style
   cross-file references.  [lib/par] and [lib/sanitize] are excluded by
   construction: the pool and the sanitizer are the trusted runtime the
   certification is {e about}, modeled as primitives by the
   interpreter.  The analysis passes themselves ([lib/lint],
   [lib/racefree]) are excluded too — dev-time tooling that never runs
   under the pool, and whose prose happens to name [Pool.map].  Longident helpers are shared with the activity pass
   ({!Scvad_activity.Model.flatten} etc). *)

module AModel = Scvad_activity.Model
module Source = Scvad_lint.Source

let flatten = AModel.flatten
let last_segment = AModel.last_segment
let line_of = AModel.line_of
let binding_name_of = AModel.binding_name_of

type file = {
  f_path : string;
  f_stem : string;  (** module stem, capitalized, e.g. ["Tape"] *)
  f_lib : string option;  (** dune library name owning the file *)
  f_bindings : (string, Parsetree.expression) Hashtbl.t;
      (** top-level (and dotted nested-module) bindings *)
  mutable f_order : string list;  (** binding names in source order *)
  f_aliases : (string, string list) Hashtbl.t;
      (** [module P = Long.Path] aliases *)
  f_functors : (string, string) Hashtbl.t;
      (** functor name -> first named parameter, for bindings collected
          under the functor's prefix *)
  f_instances : (string, string * string list) Hashtbl.t;
      (** [module S = F (Arg)] instances: name -> (functor, arg path) *)
  mutable f_opens : string list list;
      (** top-level [open M] paths, in source order *)
  f_structure : Parsetree.structure;
}

type t = {
  files : (string, file) Hashtbl.t;  (** keyed by path *)
  stems : (string, string list) Hashtbl.t;  (** stem -> paths *)
  libs : (string, string) Hashtbl.t;  (** dune library name -> dir *)
}

let capitalize_stem path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Collect a structure's bindings into [f], prefixing names bound
   inside [module M = struct … end] with ["M."] so cross-file paths
   like [Tape.Counting.push1] resolve to ["Counting.push1"] within
   tape.ml. *)
let rec collect_structure f ~prefix (items : Parsetree.structure) =
  List.iter
    (fun (it : Parsetree.structure_item) ->
      match it.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match binding_name_of vb.pvb_pat with
              | Some name ->
                  let name = prefix ^ name in
                  if not (Hashtbl.mem f.f_bindings name) then begin
                    Hashtbl.replace f.f_bindings name vb.pvb_expr;
                    f.f_order <- name :: f.f_order
                  end
              | None -> ())
            vbs
      | Pstr_module mb -> (
          match mb.pmb_name.Location.txt with
          | None -> ()
          | Some m -> (
              (* [module X : SIG = struct … end] and functor-result
                 constraints both wrap the interesting expression. *)
              let rec unwrap (me : Parsetree.module_expr) =
                match me.pmod_desc with
                | Pmod_constraint (inner, _) -> unwrap inner
                | d -> d
              in
              match unwrap mb.pmb_expr with
              | Pmod_ident lid ->
                  Hashtbl.replace f.f_aliases (prefix ^ m)
                    (flatten lid.Location.txt)
              | Pmod_structure items ->
                  collect_structure f ~prefix:(prefix ^ m ^ ".") items
              | Pmod_functor (Named ({ txt = Some p; _ }, _), body) -> (
                  match unwrap body with
                  | Pmod_structure items ->
                      Hashtbl.replace f.f_functors (prefix ^ m) p;
                      collect_structure f ~prefix:(prefix ^ m ^ ".") items
                  | _ -> ())
              | Pmod_apply (fe, ae) -> (
                  match (unwrap fe, unwrap ae) with
                  | Pmod_ident flid, Pmod_ident alid ->
                      Hashtbl.replace f.f_instances (prefix ^ m)
                        ( String.concat "." (flatten flid.Location.txt),
                          flatten alid.Location.txt )
                  | _ -> ())
              | _ -> ()))
      | Pstr_open od -> (
          match od.popen_expr.pmod_desc with
          | Pmod_ident lid ->
              f.f_opens <- f.f_opens @ [ flatten lid.Location.txt ]
          | _ -> ())
      | Pstr_include _ | Pstr_recmodule _ | Pstr_modtype _ | Pstr_type _
      | Pstr_typext _ | Pstr_exception _ | Pstr_primitive _ | Pstr_class _
      | Pstr_class_type _ | Pstr_attribute _ | Pstr_extension _
      | Pstr_eval _ ->
          ())
    items

let library_of_dune dir =
  let dune = Filename.concat dir "dune" in
  if not (Sys.file_exists dune) then None
  else
    let s = Source.read_file dune in
    (* First "(name <x>)" wins — every lib dir here has one library. *)
    let rec find i =
      match String.index_from_opt s i '(' with
      | None -> None
      | Some j ->
          let rest = String.sub s (j + 1) (String.length s - j - 1) in
          if
            String.length rest > 5
            && String.sub rest 0 5 = "name "
          then
            let k = ref 5 in
            while
              !k < String.length rest
              && not (List.mem rest.[!k] [ ')'; ' '; '\n' ])
            do
              incr k
            done;
            Some (String.trim (String.sub rest 5 (!k - 5)))
          else find (j + 1)
    in
    find 0

let excluded_dirs = [ "par"; "sanitize"; "lint"; "racefree" ]

let ml_files_under root =
  (* lib/<dir>/*.ml, skipping the trusted runtime and the analysis
     passes. *)
  if not (Sys.file_exists root && Sys.is_directory root) then []
  else
    Sys.readdir root |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun d ->
           let dir = Filename.concat root d in
           if
             (not (Sys.is_directory dir))
             || List.mem d excluded_dirs
             || String.length d > 0
                && (d.[0] = '_' || d.[0] = '.')
           then []
           else
             Sys.readdir dir |> Array.to_list |> List.sort String.compare
             |> List.filter_map (fun fn ->
                    if Filename.check_suffix fn ".ml" then
                      Some (Filename.concat dir fn)
                    else None))

let load ~root =
  let t =
    { files = Hashtbl.create 64; stems = Hashtbl.create 64;
      libs = Hashtbl.create 16 }
  in
  let findings = ref [] in
  List.iter
    (fun path ->
      match Source.parse ~file:path (Source.read_file path) with
      | Error f -> findings := f :: !findings
      | Ok ast ->
          let dir = Filename.dirname path in
          (match library_of_dune dir with
          | Some lib when not (Hashtbl.mem t.libs lib) ->
              Hashtbl.replace t.libs lib dir
          | _ -> ());
          let f =
            {
              f_path = path;
              f_stem = capitalize_stem path;
              f_lib = library_of_dune dir;
              f_bindings = Hashtbl.create 32;
              f_order = [];
              f_aliases = Hashtbl.create 8;
              f_functors = Hashtbl.create 4;
              f_instances = Hashtbl.create 4;
              f_opens = [];
              f_structure = ast;
            }
          in
          collect_structure f ~prefix:"" ast;
          f.f_order <- List.rev f.f_order;
          Hashtbl.replace t.files path f;
          let prev =
            Option.value (Hashtbl.find_opt t.stems f.f_stem) ~default:[]
          in
          Hashtbl.replace t.stems f.f_stem (prev @ [ path ]))
    (ml_files_under root);
  (t, List.rev !findings)

let file t path = Hashtbl.find_opt t.files path

(* A binding looked up by (possibly dotted) name.  [Instanced] routes
   [On_tape.var] through [module On_tape = Record (Tape)]: the body is
   [Record.var] with the functor parameter standing for the instance's
   argument module. *)
type binding =
  | Direct of Parsetree.expression
  | Instanced of Parsetree.expression * string * string list
      (** body, functor parameter name, argument module path *)

let lookup_binding f name =
  match Hashtbl.find_opt f.f_bindings name with
  | Some e -> Some (Direct e)
  | None -> (
      match String.index_opt name '.' with
      | None -> None
      | Some i -> (
          let inst = String.sub name 0 i in
          let rest = String.sub name (i + 1) (String.length name - i - 1) in
          match Hashtbl.find_opt f.f_instances inst with
          | None -> None
          | Some (fctor, argpath) -> (
              match
                ( Hashtbl.find_opt f.f_bindings (fctor ^ "." ^ rest),
                  Hashtbl.find_opt f.f_functors fctor )
              with
              | Some e, Some p -> Some (Instanced (e, p, argpath))
              | Some e, None -> Some (Direct e)
              | None, _ -> None)))

(* Resolve a module segment to a file.  Ambiguous stems (several
   [driver.ml]s) are disambiguated by [hint_lib] (a [Scvad_*] leading
   path segment) or [near] (prefer the referencing file's directory);
   still-ambiguous resolution fails — the interpreter turns that into
   an obligation rather than guessing. *)
let resolve_stem t ?hint_lib ?near stem =
  match Hashtbl.find_opt t.stems stem with
  | None | Some [] -> None
  | Some [ p ] -> Some p
  | Some paths -> (
      let by_lib =
        match hint_lib with
        | Some lib -> (
            match Hashtbl.find_opt t.libs (String.lowercase_ascii lib) with
            | Some dir ->
                List.filter (fun p -> Filename.dirname p = dir) paths
            | None -> [])
        | None -> []
      in
      match by_lib with
      | [ p ] -> Some p
      | _ -> (
          match near with
          | Some dir -> (
              match List.filter (fun p -> Filename.dirname p = dir) paths with
              | [ p ] -> Some p
              | _ -> None)
          | None -> None))
