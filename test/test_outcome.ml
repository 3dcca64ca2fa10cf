(* Golden outcome test: the full facts of the static dependence walk —
   first-effect status, output reach, dependence edges, read
   footprints, escape sites with their closed taints, the leaked set
   and the notes — rendered to text for the eight NPB kernels and the
   synthetic kernels of the activity, guard and discover tests, and
   compared byte for byte with [outcome_golden.txt].  A second golden,
   [reports_golden.txt], pins the JSON reports the activity, guard and
   discover drivers build on that walk for the eight NPB kernels, and
   the race pass's JSON report over [lib] and over each fixture tree.

   On a mismatch the rendering is written next to the golden, with the
   suffix [.actual]. *)

module Model = Scvad_activity.Model
module Absint = Scvad_activity.Absint
module Escapes = Scvad_activity.Escapes

(* ---- rendering ------------------------------------------------------ *)

let set elements = "{" ^ String.concat ", " elements ^ "}"

let render_site (s : Absint.site) =
  String.concat " + "
    (string_of_int s.Absint.s_base
    :: List.map
         (fun (c, lo, hi) -> Printf.sprintf "%d*[%d..%d]" c lo hi)
         s.Absint.s_terms)

let render_footprint = function
  | Absint.Top -> "top"
  | Absint.Sites sites ->
      "sites [" ^ String.concat "; " (List.map render_site sites) ^ "]"

(* The walk's facts, in the order the outcome lists them. *)
let render_facts b (m : Model.t) =
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  match Absint.analyze m with
  | exception Absint.Incomplete msg ->
      line "  activity incomplete: %s" msg;
      line "  escape incomplete: %s" msg
  | o ->
      List.iter
        (fun (f, st) -> line "  status %s %s" f (Absint.feffect_name st))
        o.Absint.o_status;
      line "  reaches %s" (set (Absint.SS.elements o.Absint.o_reaches));
      List.iter
        (fun (dst, srcs) ->
          line "  edge %s <- %s" dst (set (Absint.SS.elements srcs)))
        o.Absint.o_edges;
      List.iter
        (fun (f, fp) -> line "  footprint %s %s" f (render_footprint fp))
        (List.sort compare o.Absint.o_footprints);
      List.iter (fun n -> line "  activity note: %s" n) o.Absint.o_notes;
      List.iter
        (fun (s, taint) ->
          line "  escape %s <- %s" (Escapes.site_to_string s)
            (set (Absint.SS.elements taint)))
        o.Absint.o_escapes;
      line "  leaked %s" (set (Absint.SS.elements o.Absint.o_leaked));
      List.iter (fun n -> line "  escape note: %s" n) o.Absint.o_escape_notes

(* ---- the corpus ----------------------------------------------------- *)

let parse ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  Parse.implementation lexbuf

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let npb_sources () =
  let dir =
    match Scvad_activity.Driver.locate_npb_dir () with
    | Some d -> d
    | None -> Alcotest.fail "lib/npb not found above the test cwd"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.sort String.compare
  |> List.map (fun f ->
         ("lib/npb/" ^ f, read_file (Filename.concat dir f)))

(* The synthetic kernels, with the run bodies the guard tests use.
   Pragmas never change the walk, so none are set. *)
let toy_sources () =
  let guard_bodies =
    [
      ("smooth", Test_guard.smooth_body);
      ("branch", "if st.acc > S.zero then st.acc <- S.(st.acc +. st.acc);");
      ("conversion", "st.acc <- st.scratch.(int_of_float (S.to_float st.acc));");
      ("kink", "st.acc <- max st.acc st.scratch.(0);");
      ( "laundered",
        "st.scratch.(0) <- st.acc;\n\
        \      if st.scratch.(0) > S.zero then st.acc <- S.(st.acc +. st.acc);"
      );
      ("leak", Test_guard.leak_body);
    ]
  in
  (* Corners of the walk no other fixture reaches: structures, state
     escapes, guards, asserts, while loops, local arrays and refs. *)
  let corner_bodies =
    [
      ("tuple", "let p = (st.scratch, st.acc) in st.acc <- snd p;");
      ("record", "let q = { contents = st.scratch } in st.acc <- q.contents.(0);");
      ("construct", "st.acc <- (match Some st.scratch with Some a -> a.(1) | None -> st.acc);");
      ("state-escape", "Mystery.touch st;");
      ("state-tuple", "ignore (st, 1);");
      ( "guard",
        "(match st.iter_done with 0 -> () | k when k > 2 -> st.acc <- \
         S.zero | _ -> ());" );
      ("assert", "assert (st.acc > S.zero);");
      ("while", "let j = ref 0 in while !j < st.iter_done do incr j done;");
      ( "local-fill",
        "let tmp = Array.make n S.zero in Array.fill tmp (int_of_float \
         (S.to_float st.acc)) 1 st.acc; st.acc <- tmp.(0);" );
      ( "local-ref",
        "let r = ref st.scratch in r := st.scratch; st.acc <- (!r).(2);" );
      ("set-nonstate", "let q = ref S.zero in q.contents <- st.acc;");
      ("unknown-closure", "Mystery.each (fun x -> st.acc <- x) st.scratch;");
      ("hof", "Array.iteri (fun i x -> st.scratch.(i) <- S.(x +. st.acc)) st.scratch;");
    ]
  in
  [
    ("toy-activity.ml", Test_activity.toy_source ~pragma:"");
    ("toy-discover.ml", Test_discover.toy_source ~pragma:"");
    ("toy-no-run.ml", "module App = struct\n  let name = \"toy\"\nend\n");
  ]
  @ List.map
      (fun (name, body) ->
        ("toy-guard-" ^ name ^ ".ml", Test_guard.toy_source ~body ~pragma:""))
      (guard_bodies @ corner_bodies)

let render_corpus () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (file, source) ->
      let m = Model.of_structure ~file (parse ~file source) in
      match m.Model.app_name with
      | None -> ()
      | Some app ->
          Printf.bprintf b "%s (%s)\n" app file;
          render_facts b m)
    (npb_sources () @ toy_sources ());
  Buffer.contents b

(* The race report over [lib] and the three fixture trees, certified
   from the dune-project root so the paths in the reports are
   repo-relative wherever the suite runs. *)
let render_race () =
  let lib =
    match Scvad_racefree.Driver.locate_lib_dir () with
    | Some d -> d
    | None -> Alcotest.fail "lib not found above the test cwd"
  in
  let cwd = Sys.getcwd () in
  Sys.chdir (Filename.dirname lib);
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      String.concat ""
        (List.map
           (fun root ->
             Scvad_racefree.Driver.render_json
               (Scvad_racefree.Driver.certify ~root))
           [
             "lib"; "test/racefree_fixtures/good";
             "test/racefree_fixtures/bad"; "test/racefree_fixtures/assumed";
           ]))

(* Each driver's [render_json] over the NPB kernels, called per file
   with the repo-relative name so the paths in the reports do not
   depend on the test's working directory. *)
let render_reports () =
  let sources = npb_sources () in
  let pass name analyze_source render_json =
    let reports, findings =
      List.fold_left
        (fun (reports, findings) (file, source) ->
          let r, fs = analyze_source ~file source in
          (reports @ Option.to_list r, findings @ fs))
        ([], []) sources
    in
    Printf.sprintf "== %s ==\n%s" name (render_json reports findings)
  in
  String.concat ""
    [
      pass "activity" Scvad_activity.Driver.analyze_source
        Scvad_activity.Driver.render_json;
      pass "guard" Scvad_guard.Driver.analyze_source
        Scvad_guard.Driver.render_json;
      pass "discover" Scvad_discover.Driver.analyze_source
        Scvad_discover.Driver.render_json;
      "== race ==\n" ^ render_race ();
    ]

(* The goldens sit in [test/] under the dune-project root, so the
   suite runs from the build sandbox and from the repo root alike. *)
let check_golden name actual =
  let golden =
    match Scvad_lint.Source.locate "test" with
    | Some dir -> Filename.concat dir name
    | None -> name
  in
  if actual <> read_file golden then begin
    let dump = Filename.remove_extension golden ^ ".actual" in
    Out_channel.with_open_bin dump (fun oc -> output_string oc actual);
    Alcotest.failf "rendering differs from %s (written to %s)" golden dump
  end

let suites =
  [
    ( "outcome.golden",
      [
        Alcotest.test_case "walk facts byte-identical" `Slow (fun () ->
            check_golden "outcome_golden.txt" (render_corpus ()));
        Alcotest.test_case "pass reports byte-identical" `Slow (fun () ->
            check_golden "reports_golden.txt" (render_reports ()));
      ] );
  ]
