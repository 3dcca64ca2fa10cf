(* Golden outcome test: the full facts of the static dependence walk —
   first-effect status, output reach, dependence edges, read
   footprints, escape sites with their closed taints, the leaked set
   and the notes — rendered to text for the eight NPB kernels and the
   synthetic kernels of the activity, guard and discover tests, and
   compared byte for byte with [outcome_golden.txt].

   On a mismatch the rendering is written to [outcome_golden.actual]
   in the test's working directory. *)

module Model = Scvad_activity.Model
module Absint = Scvad_activity.Absint
module Escapes = Scvad_activity.Escapes

let golden_file = "outcome_golden.txt"

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

let test_golden () =
  let actual = render_corpus () in
  let expected = read_file golden_file in
  if actual <> expected then begin
    Out_channel.with_open_bin "outcome_golden.actual" (fun oc ->
        output_string oc actual);
    Alcotest.failf
      "walk outcomes differ from %s (rendering written to \
       outcome_golden.actual)"
      golden_file
  end

let suites =
  [
    ( "outcome.golden",
      [ Alcotest.test_case "walk facts byte-identical" `Slow test_golden ] );
  ]
