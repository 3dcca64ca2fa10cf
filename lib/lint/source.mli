(** Source loading shared by the lint, activity, guard, discover, cost
    and race passes. *)

val read_file : string -> string

(** Parse an implementation; a syntax or lexing error becomes an
    error-severity [Syntax] finding at the offending line. *)
val parse : file:string -> string -> (Parsetree.structure, Finding.t) result

(** The [.ml] files of a directory, sorted by name, with the directory
    prefixed. *)
val ml_files : string -> string list

(** Run a per-file pass over [files] in order: [Some] results are
    collected, findings concatenated. *)
val analyze_files :
  (file:string -> string -> 'a option * Finding.t list) ->
  string list ->
  'a list * Finding.t list

(** [locate rel] is the directory [rel] (e.g. ["lib/npb"]) under the
    [dune-project] root found by walking up from [cwd] (default: the
    current directory); [None] when there is no such root or [rel] is
    not a directory there. *)
val locate : ?cwd:string -> string -> string option
