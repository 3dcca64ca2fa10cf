(** Guard driver: project the {!Scvad_activity.Frontend}'s walk of NPB
    kernels (kill and reach facts, escape sites, leaks) onto
    per-variable {!Cert.var_cert} certificates with pragma overlay. *)

(** [analyze_source ~file source] certifies the app declared in
    [source], or [None] for shared modules; findings carry pragma
    problems and parse errors. *)
val analyze_source :
  file:string ->
  string ->
  Cert.app_certs option * Scvad_lint.Finding.t list

val analyze_file :
  string -> Cert.app_certs option * Scvad_lint.Finding.t list

val analyze_files :
  string list -> Cert.certificates * Scvad_lint.Finding.t list

(** Certify every [.ml] file in [dir], sorted by name. *)
val analyze_dir : string -> Cert.certificates * Scvad_lint.Finding.t list

val render_text : Cert.certificates -> Scvad_lint.Finding.t list -> string
val render_json : Cert.certificates -> Scvad_lint.Finding.t list -> string

(** Parse a {!render_json} document back (baseline regression gate and
    round-trip tests).  Raises [Failure] on malformed input. *)
val certs_of_json : string -> Cert.certificates
