(** The static activity driver: project the {!Frontend}'s walk of NPB
    kernel sources onto per-variable {!Verdict.var_verdict}s, apply
    [(* activity: assume … *)] pragmas, and render the report. *)

(** [None] when the file declares no NPB app (shared helpers); pragma
    and syntax problems are returned as findings either way. *)
val analyze_source :
  file:string ->
  string ->
  Verdict.app_verdicts option * Scvad_lint.Finding.t list

val analyze_file :
  string -> Verdict.app_verdicts option * Scvad_lint.Finding.t list

(** Deterministic: apps appear in the order of the given files. *)
val analyze_files :
  string list -> Verdict.verdicts * Scvad_lint.Finding.t list

(** Analyze every [.ml] file in [dir], sorted by name. *)
val analyze_dir : string -> Verdict.verdicts * Scvad_lint.Finding.t list

(** The repo's [lib/npb] directory, found by walking up from [cwd]
    (default: the current directory) to the [dune-project] root. *)
val locate_npb_dir : ?cwd:string -> unit -> string option

(** Check every inactivity claim of one app against dynamic criticality
    masks ([true] = critical), keyed by variable name.  Returns, per
    offending variable, the number of contradicted elements and up to 8
    sample indices.  Empty list = the claims are sound on this run. *)
val unsound_claims :
  Verdict.app_verdicts ->
  masks:(string * bool array) list ->
  (string * (int * int list)) list

val render_text : Verdict.verdicts -> Scvad_lint.Finding.t list -> string
val render_json : Verdict.verdicts -> Scvad_lint.Finding.t list -> string
