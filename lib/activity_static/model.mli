(** The one source model of the static passes: a scanned tree's parsed
    files, each collected by one walk into what cross-file resolution
    needs ({!file}: dotted bindings, aliases, opens; {!tree}: stem and
    library indexes) and into its per-kernel facts ({!t}: function
    table, functors unwrapped, first definition wins, so kernel bodies
    shadow their [App.Make] aliases; the [state] record fields; folded
    integer constants; and the checkpoint-variable declarations parsed
    from the same [float_vars]/[int_vars] the dynamic engine consumes).
    The race pass resolves calls across the {!tree}; activity, guard
    and discover query one file's {!kernel}. *)

type fn = {
  fn_params : (Asttypes.arg_label * Parsetree.pattern) list;
  fn_body : Parsetree.expression;
}

type var_decl = {
  v_name : string;  (** checkpoint variable name (Table I) *)
  v_field : string option;  (** backing state field, when unambiguous *)
  v_kind : Verdict.kind;
  v_elements : int option;  (** element count, when statically known *)
  v_spe : int;
  v_declared_critical : string option;
      (** [Always_critical] justification, for declared-critical ints *)
  v_line : int;  (** declaration site, for pragma anchoring *)
}

type t = {
  file : string;
  mutable app_name : string option;  (** [App.name], e.g. ["ep"] *)
  consts : Constfold.env;
  funcs : (string, fn) Hashtbl.t;
  fields : (string, bool) Hashtbl.t;  (** state field -> is_array *)
  field_elements : (string, int) Hashtbl.t;
      (** backing field -> element count, from the var declarations *)
  local_modules : (string, unit) Hashtbl.t;
      (** module names bound in this file (callee paths through them
          resolve locally) *)
  pure_modules : (string, unit) Hashtbl.t;
      (** functor parameters constrained to [Scalar.S]: their operations
          are treated as pure scalar functions *)
  param_modules : (string, unit) Hashtbl.t;
      (** other functor parameters (e.g. IS's [O : INT_OPS]): calls
          through them may be resolvable against a sibling in-file
          implementation of the same signature *)
  mutable vars : var_decl list;
  mutable notes : string list;  (** extraction imprecision notes *)
}

(** One parsed file. *)
type file = {
  f_path : string;
  f_stem : string;  (** module stem, capitalized, e.g. ["Tape"] *)
  f_bindings : (string, Parsetree.expression) Hashtbl.t;
      (** top-level bindings, nested-module ones under dotted names *)
  mutable f_order : string list;  (** binding names in source order *)
  f_aliases : (string, string list) Hashtbl.t;
      (** [module P = Long.Path] aliases *)
  mutable f_opens : string list list;  (** [open M] paths, in order *)
  f_kernel : t;
  f_source : string;  (** the text {!load} parsed; [""] from a parsetree *)
}

(** The parsed forest of a scanned tree. *)
type tree = {
  files : (string, file) Hashtbl.t;  (** keyed by path *)
  stems : (string, string list) Hashtbl.t;  (** stem -> paths *)
  libs : (string, string) Hashtbl.t;  (** dune library name -> dir *)
}

(** The per-kernel facts of one file. *)
val kernel : file -> t

val note : t -> string -> unit
val find_fn : t -> string -> fn option
val is_state_field : t -> string -> bool

(** Flattened [Longident.t] segments. *)
val flatten : Longident.t -> string list

val last_segment : Longident.t -> string
val line_of : Location.t -> int

(** Name bound by a simple [Ppat_var] (possibly constrained) pattern. *)
val binding_name_of : Parsetree.pattern -> string option

(** The kernel facts of one parsed implementation. *)
val of_structure : file:string -> Parsetree.structure -> t

(** [load ~exclude root] parses every [root/<dir>/*.ml], skipping the
    directories named in [exclude] and those starting with [_] or [.];
    files that do not parse come back as findings. *)
val load : exclude:string list -> string -> tree * Scvad_lint.Finding.t list

val file : tree -> string -> file option

(** A binding of a file by (possibly dotted) name. *)
val lookup_binding : file -> string -> Parsetree.expression option

(** [resolve_stem tree ?hint_lib ?near stem] is the path of the file
    whose module is [stem].  Several candidates are settled by
    [hint_lib] (a [Scvad_*] library name), then by [near] (a
    directory); a stem still ambiguous resolves to [None]. *)
val resolve_stem :
  tree -> ?hint_lib:string -> ?near:string -> string -> string option
