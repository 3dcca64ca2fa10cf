(* Helpers shared by the gates of `scvad check`: every violation is
   printed to stderr under the pass's prefix. *)

module Criticality = Scvad_core.Criticality

(* The registered benchmark behind an analyzed app.  An app the suite
   does not know cannot be checked dynamically, which is itself a
   violation. *)
let registered ~pass name =
  match Scvad_npb.Suite.find name with
  | Some _ as app -> app
  | None ->
      Printf.eprintf "%s: GATE VIOLATION: app %s has no registered benchmark\n"
        pass name;
      None

(* Pre-resolving the variables a static pass proved irrelevant must not
   change any mask.  The soundness gates plus all-false masks for
   skipped variables imply this, so a mismatch means an analyzer bug. *)
let masks_identical ~pass ~mode ~app (unfiltered : Criticality.report)
    filtered =
  List.for_all
    (fun (v : Criticality.var_report) ->
      let f = Criticality.find filtered v.Criticality.name in
      if f.Criticality.mask = v.Criticality.mask then true
      else begin
        Printf.eprintf
          "%s: GATE VIOLATION: %s.%s: %s mask differs from the unfiltered \
           analysis\n"
          pass app v.Criticality.name mode;
        false
      end)
    unfiltered.Criticality.vars
