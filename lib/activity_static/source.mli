(** Kernel source loading shared by the activity, guard and discover
    drivers. *)

val read_file : string -> string

(** Parse an implementation; a syntax or lexing error becomes an
    error-severity [Syntax] finding at the offending line. *)
val parse :
  file:string ->
  string ->
  (Parsetree.structure, Scvad_lint.Finding.t) result

(** The [.ml] files of a directory, sorted by name, with the directory
    prefixed. *)
val ml_files : string -> string list

(** Run a per-file pass over [files] in order: [Some] results are
    collected, findings concatenated. *)
val analyze_files :
  (file:string -> string -> 'a option * Scvad_lint.Finding.t list) ->
  string list ->
  'a list * Scvad_lint.Finding.t list
