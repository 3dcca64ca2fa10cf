(* The one front end of the activity, guard and discover passes: each
   parses the kernel, builds the same model, and runs the same walk;
   only the projection of the outcome differs. *)

module Source = Scvad_lint.Source

type kernel = {
  app : string;
  model : Model.t;
  outcome : (Absint.outcome, string) result;
}

let analyze_source ~scan ~unused project ~file source =
  let pragmas, pragma_errors = scan ~file source in
  match Source.parse ~file source with
  | Error f -> (None, [ f ])
  | Ok ast -> (
      let model = Model.of_structure ~file ast in
      match model.Model.app_name with
      | None -> (None, pragma_errors)
      | Some app ->
          let outcome =
            match Absint.analyze model with
            | o -> Ok o
            | exception Absint.Incomplete msg -> Error msg
          in
          let report = project pragmas { app; model; outcome } in
          (Some report, pragma_errors @ unused pragmas))
