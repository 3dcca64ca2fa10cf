(** The front end shared by the activity, guard and discover passes:
    scan the pass's pragmas, parse one kernel source, extract its
    {!Model}, and run the abstract interpreter once.  A pass supplies
    only its projection of the result. *)

(** What a pass projects, for a file that declares an NPB app. *)
type kernel = {
  app : string;  (** [App.name], e.g. ["ep"] *)
  model : Model.t;
  outcome : (Absint.outcome, string) result;
      (** [Error msg] when the interpreter gave up
          ([Absint.Incomplete msg]) *)
}

(** [analyze_source ~scan ~unused project ~file source] scans the
    pass's pragmas with [scan], parses [source], and returns
    [Some (project pragmas kernel)], or [None] when the file declares
    no app (shared helpers).  The findings are the syntax error alone,
    or the malformed pragmas followed by the ones [project] left
    unconsumed ([unused]). *)
val analyze_source :
  scan:(file:string -> string -> 'pragmas * Scvad_lint.Finding.t list) ->
  unused:('pragmas -> Scvad_lint.Finding.t list) ->
  ('pragmas -> kernel -> 'report) ->
  file:string ->
  string ->
  'report option * Scvad_lint.Finding.t list
