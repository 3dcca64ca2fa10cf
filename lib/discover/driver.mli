(** Discover driver: rank every state field of NPB kernels from the
    {!Scvad_activity.Frontend}'s walk (first effects, dependence edges,
    leak facts), and assemble per-field {!Rank.field_rank} proposals
    with pragma overlay. *)

(** [analyze_source ~file source] ranks the app declared in [source],
    or [None] for shared modules; findings carry pragma problems and
    parse errors. *)
val analyze_source :
  file:string ->
  string ->
  Rank.app_ranks option * Scvad_lint.Finding.t list

val analyze_file :
  string -> Rank.app_ranks option * Scvad_lint.Finding.t list

val analyze_files :
  string list -> Rank.proposals * Scvad_lint.Finding.t list

(** Rank every [.ml] file in [dir], sorted by name. *)
val analyze_dir : string -> Rank.proposals * Scvad_lint.Finding.t list

val render_text : Rank.proposals -> Scvad_lint.Finding.t list -> string
val render_json : Rank.proposals -> Scvad_lint.Finding.t list -> string
