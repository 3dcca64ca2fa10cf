(* The one source model of the static passes: the parsed forest of a
   scanned tree, each file collected by one walk that records both
   what cross-file resolution needs and the per-kernel facts.

   - Resolution (the race pass): every top-level binding, nested
     [module M = struct … end] and single-functor bodies included, under
     its dotted name ("Counting.push1"); [module P = Path] aliases;
     [open]s; and the tree's stem and dune-library indexes, so a
     [Tape.create] in one file resolves to tape.ml's binding.
   - Kernel facts (activity, guard, discover): the function table
     (functors unwrapped, first definition wins, so kernel bodies shadow
     their [App.Make] aliases), the [state] record fields, the functor
     parameters and local modules, the folded integer constants, and
     the checkpoint-variable declarations parsed out of
     [float_vars]/[int_vars] — the same declarations the dynamic engine
     consumes at run time, so the two sides analyze the same metadata
     by construction.  {!kernel} is the per-kernel query. *)

open Parsetree

let rec flatten (lid : Longident.t) =
  match lid with
  | Lident s -> [ s ]
  | Ldot (l, s) -> flatten l @ [ s ]
  | Lapply (a, b) -> flatten a @ flatten b

let rec last_segment (lid : Longident.t) =
  match lid with Lident s | Ldot (_, s) -> s | Lapply (_, b) -> last_segment b

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

type fn = {
  fn_params : (Asttypes.arg_label * pattern) list;
  fn_body : expression;
}

type var_decl = {
  v_name : string;
  v_field : string option;  (* backing state field, when unambiguous *)
  v_kind : Verdict.kind;
  v_elements : int option;
  v_spe : int;
  v_declared_critical : string option;  (* Always_critical justification *)
  v_line : int;
}

type t = {
  file : string;
  mutable app_name : string option;
  consts : Constfold.env;
  funcs : (string, fn) Hashtbl.t;  (* first definition wins *)
  fields : (string, bool) Hashtbl.t;  (* state field -> is_array *)
  field_elements : (string, int) Hashtbl.t;  (* from var declarations *)
  local_modules : (string, unit) Hashtbl.t;
  pure_modules : (string, unit) Hashtbl.t;  (* Scalar.S functor params *)
  param_modules : (string, unit) Hashtbl.t;  (* other functor params *)
  mutable vars : var_decl list;
  mutable notes : string list;
}

let note t msg = if not (List.mem msg t.notes) then t.notes <- t.notes @ [ msg ]
let find_fn t name = Hashtbl.find_opt t.funcs name
let is_state_field t name = Hashtbl.mem t.fields name

type file = {
  f_path : string;
  f_stem : string;  (* module stem, capitalized, e.g. "Tape" *)
  f_bindings : (string, expression) Hashtbl.t;  (* dotted names *)
  mutable f_order : string list;  (* binding names in source order *)
  f_aliases : (string, string list) Hashtbl.t;  (* module P = Long.Path *)
  mutable f_opens : string list list;  (* top-level opens, in order *)
  f_kernel : t;
  f_source : string;  (* the text [load] parsed; "" from a parsetree *)
}

type tree = {
  files : (string, file) Hashtbl.t;  (* keyed by path *)
  stems : (string, string list) Hashtbl.t;  (* stem -> paths *)
  libs : (string, string) Hashtbl.t;  (* dune library name -> dir *)
}

let kernel f = f.f_kernel

(* ---- function collection -------------------------------------------- *)

let rec split_fun params (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (label, _, pat, body) -> split_fun ((label, pat) :: params) body
  | Pexp_newtype (_, body) -> split_fun params body
  | Pexp_constraint (inner, _) when params = [] -> split_fun params inner
  | _ -> (List.rev params, e)

let string_const (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* Is this module type Scvad_ad.Scalar.S (whose operations are pure in
   the primal sense the pass needs)? *)
let is_scalar_sig (mty : module_type) =
  match mty.pmty_desc with
  | Pmty_ident { txt; _ } -> (
      match List.rev (flatten txt) with
      | "S" :: "Scalar" :: _ -> true
      | _ -> false)
  | _ -> false

(* The walk.  [prefix] is the dotted path of the enclosing module when
   its bindings are addressable from other files ([Some ""] at top
   level), [None] inside includes, recursive modules, functor
   applications and functors nested in functors; the kernel facts are
   collected everywhere. *)
let rec collect_structure f ~prefix items =
  List.iter (collect_item f ~prefix) items

and collect_item f ~prefix item =
  let t = f.f_kernel in
  match item.pstr_desc with
  | Pstr_value (_, vbs) -> List.iter (collect_binding f ~prefix) vbs
  | Pstr_type (_, decls) -> List.iter (collect_type t) decls
  | Pstr_module mb ->
      let name =
        match mb.pmb_name.Location.txt with Some n -> n | None -> "_"
      in
      if module_is_internal t mb.pmb_expr then
        Hashtbl.replace t.local_modules name ();
      if name = "App" && t.app_name = None then
        t.app_name <- app_name_of t mb.pmb_expr;
      let prefix =
        match (prefix, mb.pmb_name.Location.txt) with
        | Some p, Some m ->
            (match (unconstrain mb.pmb_expr).pmod_desc with
            | Pmod_ident lid ->
                Hashtbl.replace f.f_aliases (p ^ m) (flatten lid.Location.txt)
            | _ -> ());
            Some (p ^ m ^ ".")
        | _ -> None
      in
      collect_module_expr f ~prefix ~in_functor:false mb.pmb_expr
  | Pstr_recmodule mbs ->
      List.iter
        (fun mb ->
          (match mb.pmb_name.Location.txt with
          | Some n when module_is_internal t mb.pmb_expr ->
              Hashtbl.replace t.local_modules n ()
          | _ -> ());
          collect_module_expr f ~prefix:None ~in_functor:false mb.pmb_expr)
        mbs
  | Pstr_include incl ->
      collect_module_expr f ~prefix:None ~in_functor:false incl.pincl_mod
  | Pstr_open { popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ }
    when prefix <> None ->
      f.f_opens <- f.f_opens @ [ flatten lid.Location.txt ]
  | _ -> ()

and collect_binding f ~prefix vb =
  let t = f.f_kernel in
  match binding_name vb.pvb_pat with
  | None -> ()
  | Some name -> (
      (match prefix with
      | Some p when not (Hashtbl.mem f.f_bindings (p ^ name)) ->
          Hashtbl.replace f.f_bindings (p ^ name) vb.pvb_expr;
          f.f_order <- (p ^ name) :: f.f_order
      | _ -> ());
      match split_fun [] vb.pvb_expr with
      | [], _ -> Constfold.add_binding t.consts name vb.pvb_expr
      | params, body ->
          if not (Hashtbl.mem t.funcs name) then
            Hashtbl.add t.funcs name { fn_params = params; fn_body = body })

and unconstrain (me : module_expr) =
  match me.pmod_desc with
  | Pmod_constraint (inner, _) -> unconstrain inner
  | _ -> me

and binding_name (p : pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (inner, _) -> binding_name inner
  | _ -> None

(* A module binding is "internal" when calls through it resolve to
   functions defined in this file: a structure literal, a functor whose
   body is one, or an application of an internal module ([Plain =
   Kernel (Plain_ops)]).  [C = Adi_common.Make_sized (G) (S)] is
   external — calls through it stay conservative. *)
and module_is_internal t (me : module_expr) =
  match me.pmod_desc with
  | Pmod_structure _ | Pmod_functor _ -> true
  | Pmod_constraint (inner, _) -> module_is_internal t inner
  | Pmod_apply (f, _) | Pmod_apply_unit f -> module_is_internal t f
  | Pmod_ident { txt; _ } -> (
      match flatten txt with
      | head :: _ -> Hashtbl.mem t.local_modules head
      | [] -> false)
  | Pmod_unpack _ | Pmod_extension _ -> false

and collect_type t decl =
  if decl.ptype_name.Location.txt = "state" then
    match decl.ptype_kind with
    | Ptype_record labels ->
        List.iter
          (fun ld ->
            let is_array =
              match ld.pld_type.ptyp_desc with
              | Ptyp_constr ({ txt; _ }, _) -> last_segment txt = "array"
              | _ -> false
            in
            Hashtbl.replace t.fields ld.pld_name.Location.txt is_array)
          labels
    | _ -> ()

and collect_module_expr f ~prefix ~in_functor (me : module_expr) =
  let t = f.f_kernel in
  match me.pmod_desc with
  | Pmod_structure items -> collect_structure f ~prefix items
  | Pmod_functor (param, body) ->
      let named =
        match param with
        | Named ({ Location.txt = Some pname; _ }, mty) ->
            if is_scalar_sig mty then Hashtbl.replace t.pure_modules pname ()
            else Hashtbl.replace t.param_modules pname ();
            true
        | _ -> false
      in
      let prefix = if named && not in_functor then prefix else None in
      collect_module_expr f ~prefix ~in_functor:true body
  | Pmod_constraint (inner, _) ->
      collect_module_expr f ~prefix ~in_functor inner
  | Pmod_apply (g, arg) ->
      collect_module_expr f ~prefix:None ~in_functor g;
      collect_module_expr f ~prefix:None ~in_functor arg
  | Pmod_apply_unit g -> collect_module_expr f ~prefix:None ~in_functor g
  | Pmod_ident _ | Pmod_unpack _ | Pmod_extension _ -> ()

and app_name_of t (me : module_expr) =
  match me.pmod_desc with
  | Pmod_constraint (inner, _) -> app_name_of t inner
  | Pmod_structure items ->
      List.fold_left
        (fun acc item ->
          match (acc, item.pstr_desc) with
          | Some _, _ -> acc
          | None, Pstr_value (_, vbs) ->
              List.fold_left
                (fun acc vb ->
                  match (acc, binding_name vb.pvb_pat) with
                  | None, Some "name" -> string_const vb.pvb_expr
                  | _ -> acc)
                None vbs
          | None, _ -> None)
        None items
  | _ -> None

(* ---- checkpoint-variable declarations ------------------------------- *)

(* All state-field names mentioned through the declaration expression
   ([st.f] reads in read/write accessors, [st.f <- v] writes, positional
   array arguments). *)
let fields_mentioned t (e : expression) =
  let acc = ref [] in
  let add name =
    if is_state_field t name && not (List.mem name !acc) then
      acc := name :: !acc
  in
  let it = Ast_iterator.default_iterator in
  let expr it' (e : expression) =
    (match e.pexp_desc with
    | Pexp_field (_, { txt; _ }) -> add (last_segment txt)
    | Pexp_setfield (_, { txt; _ }, _) -> add (last_segment txt)
    | _ -> ());
    it.expr it' e
  in
  let it = { it with expr } in
  it.expr it e;
  !acc

(* Element count of a [Shape] expression: [Shape.scalar],
   [Shape.create [dims]], or a let-bound alias of either. *)
let rec elements_of_shape t locals (e : expression) =
  match e.pexp_desc with
  | Pexp_constraint (inner, _) -> elements_of_shape t locals inner
  | Pexp_ident { txt; _ } -> (
      match last_segment txt with
      | "scalar" -> Some 1
      | name -> (
          match List.assoc_opt name locals with
          | Some alias -> elements_of_shape t locals alias
          | None -> None))
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when last_segment txt = "create" -> (
      match args with
      | [ (Asttypes.Nolabel, dims) ] ->
          let rec product (e : expression) =
            match e.pexp_desc with
            | Pexp_construct ({ txt = Lident "[]"; _ }, None) -> Some 1
            | Pexp_construct
                ( { txt = Lident "::"; _ },
                  Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ } ) -> (
                match (Constfold.eval t.consts hd, product tl) with
                | Some d, Some rest when d >= 0 -> Some (d * rest)
                | _ -> None)
            | _ -> None
          in
          product dims
      | _ -> None)
  | _ -> None

let labelled name args =
  List.find_map
    (fun (label, e) ->
      match label with
      | Asttypes.Labelled l when l = name -> Some e
      | Asttypes.Optional l when l = name -> Some e
      | _ -> None)
    args

let positional args =
  List.filter_map
    (fun (label, e) ->
      match label with Asttypes.Nolabel -> Some e | _ -> None)
    args

(* Unique backing field of a declaration, from the fields its read/write
   accessors (or positional array argument) mention. *)
let field_of_decl t exprs =
  match List.concat_map (fields_mentioned t) exprs with
  | [] -> None
  | first :: rest ->
      if List.for_all (fun f -> f = first) rest then Some first else None

let crit_of_construct (e : expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, arg) -> (
      match (last_segment txt, arg) with
      | "Always_critical", Some reason -> (
          match string_const reason with
          | Some s -> Some (Some s)
          | None -> Some (Some "declared"))
      | "By_taint", _ -> Some None
      | _ -> None)
  | _ -> None

(* The [~crit] argument's declared criticality, if any. *)
let declared args =
  Option.join (Option.bind (labelled "crit" args) crit_of_construct)

let decl_of_element t ~kind locals (e : expression) =
  let line = line_of e.pexp_loc in
  let mk ~name ~field ~elements ~spe ~declared =
    (match (field, elements) with
    | Some f, Some n -> Hashtbl.replace t.field_elements f n
    | _ -> ());
    Some
      {
        v_name = name;
        v_field = field;
        v_kind = kind;
        v_elements = elements;
        v_spe = spe;
        v_declared_critical = declared;
        v_line = line;
      }
  in
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let pos = positional args in
      match last_segment txt with
      | "make" | "int_scalar" -> (
          match Option.bind (labelled "name" args) string_const with
          | None -> None
          | Some name ->
              let spe =
                match
                  Option.bind (labelled "spe" args)
                    (Constfold.eval t.consts)
                with
                | Some s -> s
                | None -> 1
              in
              let elements =
                (* [int_scalar] takes no shape: it is one element. *)
                match labelled "shape" args with
                | Some shape -> elements_of_shape t locals shape
                | None -> Some 1
              in
              let accessors =
                List.filter_map
                  (fun l -> labelled l args)
                  [ "read"; "write"; "get"; "set" ]
              in
              mk ~name ~field:(field_of_decl t accessors) ~elements ~spe
                ~declared:(declared args))
      | "of_array" | "int_of_array" -> (
          match Option.bind (labelled "name" args) string_const with
          | None -> None
          | Some name ->
              let elements =
                match pos with
                | shape :: _ -> elements_of_shape t locals shape
                | [] -> None
              in
              let field =
                match pos with
                | [ _; arr ] -> field_of_decl t [ arr ]
                | _ -> None
              in
              mk ~name ~field ~elements ~spe:1 ~declared:(declared args))
      | _ -> None)
  | _ -> None

(* Walk a [float_vars]/[int_vars] body down to its list literal,
   accumulating let-bound shape aliases on the way. *)
let rec decls_of_body t ~kind locals (e : expression) =
  match e.pexp_desc with
  | Pexp_open (_, body) | Pexp_constraint (body, _) ->
      decls_of_body t ~kind locals body
  | Pexp_let (_, vbs, body) ->
      let locals =
        List.fold_left
          (fun locals vb ->
            match binding_name vb.pvb_pat with
            | Some n -> (n, vb.pvb_expr) :: locals
            | None -> locals)
          locals vbs
      in
      decls_of_body t ~kind locals body
  | Pexp_construct ({ txt = Lident "[]"; _ }, None) -> []
  | Pexp_construct
      ({ txt = Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ })
    -> (
      let rest = decls_of_body t ~kind locals tl in
      match decl_of_element t ~kind locals hd with
      | Some d -> d :: rest
      | None ->
          note t
            (Printf.sprintf
               "unrecognized %s declaration at line %d (verdict Unknown)"
               (Verdict.kind_name kind) (line_of hd.pexp_loc));
          rest)
  | _ ->
      note t
        (Printf.sprintf "could not resolve %s list at line %d"
           (Verdict.kind_name kind) (line_of e.pexp_loc));
      []

let collect_vars t =
  let of_fn name kind =
    match find_fn t name with
    | Some fn -> decls_of_body t ~kind [] fn.fn_body
    | None -> []
  in
  t.vars <-
    of_fn "float_vars" Verdict.Float_var @ of_fn "int_vars" Verdict.Int_var

let binding_name_of = binding_name

(* ---- entry ----------------------------------------------------------- *)

let collect_file ?(source = "") ~path (items : structure) =
  let t =
    {
      file = path;
      app_name = None;
      consts = Constfold.create_env ();
      funcs = Hashtbl.create 64;
      fields = Hashtbl.create 16;
      field_elements = Hashtbl.create 16;
      local_modules = Hashtbl.create 16;
      pure_modules = Hashtbl.create 8;
      param_modules = Hashtbl.create 8;
      vars = [];
      notes = [];
    }
  in
  let f =
    {
      f_path = path;
      f_stem =
        String.capitalize_ascii
          (Filename.remove_extension (Filename.basename path));
      f_bindings = Hashtbl.create 32;
      f_order = [];
      f_aliases = Hashtbl.create 8;
      f_opens = [];
      f_kernel = t;
      f_source = source;
    }
  in
  collect_structure f ~prefix:(Some "") items;
  f.f_order <- List.rev f.f_order;
  collect_vars t;
  f

let of_structure ~file items = kernel (collect_file ~path:file items)

(* ---- the tree -------------------------------------------------------- *)

module Source = Scvad_lint.Source

(* The library a dune file declares: its first "(name <x>)". *)
let library_of_dune dir =
  let dune = Filename.concat dir "dune" in
  if not (Sys.file_exists dune) then None
  else
    let s = Source.read_file dune and key = "(name " in
    let n = String.length s and kl = String.length key in
    let rec find i =
      if i + kl >= n then None
      else if String.sub s i kl <> key then find (i + 1)
      else
        let k = ref (i + kl) in
        while !k < n && not (List.mem s.[!k] [ ')'; ' '; '\n' ]) do
          incr k
        done;
        Some (String.trim (String.sub s (i + kl) (!k - i - kl)))
    in
    find 0

(* [root]/<dir>/*.ml, sorted, skipping [exclude]d and [_]/[.]-prefixed
   directories. *)
let ml_files_under ~exclude root =
  if not (Sys.file_exists root && Sys.is_directory root) then []
  else
    Sys.readdir root |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun d ->
           let dir = Filename.concat root d in
           if
             (not (Sys.is_directory dir))
             || List.mem d exclude
             || d.[0] = '_' || d.[0] = '.'
           then []
           else Source.ml_files dir)

(* The forest under [root]; files that do not parse come back as
   findings. *)
let load ~exclude root =
  let tree =
    { files = Hashtbl.create 64; stems = Hashtbl.create 64;
      libs = Hashtbl.create 16 }
  in
  let findings =
    List.filter_map
      (fun path ->
        let source = Source.read_file path in
        match Source.parse ~file:path source with
        | Error finding -> Some finding
        | Ok ast ->
            let dir = Filename.dirname path in
            (match library_of_dune dir with
            | Some lib when not (Hashtbl.mem tree.libs lib) ->
                Hashtbl.replace tree.libs lib dir
            | _ -> ());
            let f = collect_file ~source ~path ast in
            Hashtbl.replace tree.files path f;
            let prev =
              Option.value (Hashtbl.find_opt tree.stems f.f_stem) ~default:[]
            in
            Hashtbl.replace tree.stems f.f_stem (prev @ [ path ]);
            None)
      (ml_files_under ~exclude root)
  in
  (tree, findings)

let file tree path = Hashtbl.find_opt tree.files path
let lookup_binding f name = Hashtbl.find_opt f.f_bindings name

(* The file a module stem names.  Ambiguous stems (several [driver.ml]s)
   are settled by [hint_lib] (a leading [Scvad_*] path segment), then by
   [near] (the referencing file's directory); a stem still ambiguous
   resolves to nothing rather than to a guess. *)
let resolve_stem tree ?hint_lib ?near stem =
  match Hashtbl.find_opt tree.stems stem with
  | None | Some [] -> None
  | Some [ p ] -> Some p
  | Some paths -> (
      let in_dir dir = List.filter (fun p -> Filename.dirname p = dir) paths in
      let by_lib =
        match
          Option.bind hint_lib (fun lib ->
              Hashtbl.find_opt tree.libs (String.lowercase_ascii lib))
        with
        | Some dir -> in_dir dir
        | None -> []
      in
      match (by_lib, near) with
      | [ p ], _ -> Some p
      | _, Some dir -> ( match in_dir dir with [ p ] -> Some p | _ -> None)
      | _, None -> None)
