(* End-to-end tests of the core pipeline on a synthetic application with
   a known criticality pattern, before the NPB kernels exercise it at
   scale.

   Toy app: a 10-element array where only elements 0..7 participate in
   the computation (elements 8..9 model the over-allocation the paper
   attributes to "imperfect coding"), plus a scalar accumulator and a
   main-loop index. *)

open Scvad_core
open Scvad_ad

module Toy : App.S = struct
  let name = "toy"
  let description = "stencil on a[0..7] of a 10-element array"
  let default_niter = 6
  let analysis_niter = 2
  let int_taint_masks = None

  module Make (S : Scvad_ad.Scalar.S) = struct
    type scalar = S.t

    type state = {
      a : S.t array;
      mutable acc : S.t;
      mutable iter_done : int;
    }

    let create () =
      {
        a = Array.init 10 (fun i -> S.of_float (1. +. (0.1 *. float i)));
        acc = S.zero;
        iter_done = 0;
      }

    let step st =
      for i = 0 to 6 do
        st.a.(i) <- S.(st.a.(i) +. (of_float 0.1 *. st.a.(i + 1)))
      done;
      let sum = ref S.zero in
      for i = 0 to 7 do
        sum := S.(!sum +. st.a.(i))
      done;
      st.acc <- S.(st.acc +. !sum)

    let run st ~from ~until =
      for _ = from to until - 1 do
        step st;
        st.iter_done <- st.iter_done + 1
      done

    let iterations_done st = st.iter_done
    let output st = st.acc

    let float_vars st =
      [ Variable.of_array ~name:"a" ~doc:"stencil state"
          (Scvad_nd.Shape.create [ 10 ])
          st.a;
        Variable.make ~name:"acc" ~doc:"running reduction"
          ~shape:Scvad_nd.Shape.scalar ~spe:1 ~fill:S.zero
          ~read:(fun lo hi dst off -> if lo < hi then dst.(off) <- st.acc)
          ~write:(fun lo hi src off -> if lo < hi then st.acc <- src.(off))
          () ]

    let int_vars st =
      [ Variable.int_scalar ~name:"it" ~doc:"main loop index"
          ~crit:(Variable.Always_critical "main loop index")
          ~get:(fun () -> st.iter_done)
          ~set:(fun x -> st.iter_done <- x) ]
  end

  module Float = Make (Float_scalar)
end

let expected_mask = Array.init 10 (fun i -> i <= 7)

let mask_of_report report vname =
  (Criticality.find report vname).Criticality.mask

let test_reverse_toy () =
  let r = Analyzer.run (module Toy) in
  Alcotest.(check (array bool)) "a mask" expected_mask (mask_of_report r "a");
  Alcotest.(check (array bool)) "acc mask" [| true |] (mask_of_report r "acc");
  Alcotest.(check (array bool)) "it mask" [| true |] (mask_of_report r "it");
  let va = Criticality.find r "a" in
  Alcotest.(check int) "uncritical count" 2 (Criticality.uncritical va);
  Alcotest.(check int) "total" 10 (Criticality.total va);
  Alcotest.(check string) "regions" "0-8"
    (Scvad_checkpoint.Regions.to_string va.Criticality.regions);
  Alcotest.(check bool) "tape recorded" true (r.Criticality.tape_nodes > 0)

let test_modes_agree_on_toy () =
  let by_mode m =
    Analyzer.run ~config:Analyzer.Config.(default |> with_mode m) (module Toy)
  in
  let reverse = by_mode Criticality.Reverse_gradient in
  let forward = by_mode Criticality.Forward_probe in
  let activity = by_mode Criticality.Activity_dependence in
  List.iter
    (fun name ->
      Alcotest.(check (array bool))
        (name ^ ": forward = reverse")
        (mask_of_report reverse name)
        (mask_of_report forward name);
      Alcotest.(check (array bool))
        (name ^ ": activity = reverse")
        (mask_of_report reverse name)
        (mask_of_report activity name))
    [ "a"; "acc" ]

let test_analyze_mid_run () =
  (* Lifting at a later checkpoint boundary must not change the
     pattern (access patterns are iteration-invariant). *)
  let r =
    Analyzer.run
      ~config:Analyzer.Config.(default |> with_at_iter 3 |> with_niter 5)
      (module Toy)
  in
  Alcotest.(check (array bool)) "a mask at t=3" expected_mask
    (mask_of_report r "a")

let test_analyze_bad_args () =
  match
    Analyzer.run
      ~config:Analyzer.Config.(default |> with_at_iter 5 |> with_niter 2)
      (module Toy)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let with_store f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "scvad_core_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  let store = Scvad_checkpoint.Store.create dir in
  Fun.protect
    ~finally:(fun () ->
      Scvad_checkpoint.Store.wipe store;
      Unix.rmdir dir)
    (fun () -> f store)

let test_crash_restart_full () =
  with_store (fun store ->
      let e =
        Harness.crash_restart_experiment ~store ~every:2 ~crash_at:4
          (module Toy)
      in
      Alcotest.(check bool) "verified" true e.Harness.verified;
      Alcotest.(check int) "iterations" e.Harness.golden.Harness.iterations
        e.Harness.restarted.Harness.iterations)

let test_crash_restart_pruned_poisoned () =
  with_store (fun store ->
      let report = Analyzer.run (module Toy) in
      let e =
        Harness.crash_restart_experiment ~report ~store ~every:2 ~crash_at:5
          ~poison:Scvad_checkpoint.Failure.Nan (module Toy)
      in
      Alcotest.(check bool) "verified with NaN-poisoned uncritical" true
        e.Harness.verified)

let test_pruned_restore_poisons_uncritical () =
  let module I = Toy.Make (Float_scalar) in
  let st = I.create () in
  I.run st ~from:0 ~until:3;
  let report = Analyzer.run (module Toy) in
  let file =
    Pruned.snapshot ~report ~app:"toy" ~iteration:3
      ~float_vars:(I.float_vars st) ~int_vars:(I.int_vars st) ()
  in
  let st2 = I.create () in
  let from =
    Pruned.restore file ~float_vars:(I.float_vars st2)
      ~int_vars:(I.int_vars st2)
  in
  Alcotest.(check int) "restored iteration" 3 from;
  let module V = Variable in
  let a2 = List.hd (I.float_vars st2) in
  for e = 0 to 7 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "critical a[%d] restored" e)
      (V.read_element (List.hd (I.float_vars st)) e).(0)
      (V.read_element a2 e).(0)
  done;
  Alcotest.(check bool) "a[8] poisoned" true (Float.is_nan (V.read_element a2 8).(0));
  Alcotest.(check bool) "a[9] poisoned" true (Float.is_nan (V.read_element a2 9).(0))

let test_storage_accounting () =
  let report = Analyzer.run (module Toy) in
  let row = Report.table3_row (module Toy) report in
  (* full: a (10) + acc (1) + it (1) = 12 scalars *)
  Alcotest.(check int) "original bytes" (12 * 8) row.Report.original_bytes;
  (* pruned payload: a keeps 8 of 10 elements; acc and it stay full *)
  Alcotest.(check int) "optimized bytes" (10 * 8) row.Report.optimized_bytes;
  (* one region of a: two 8-byte bounds in the auxiliary file *)
  Alcotest.(check int) "aux bytes" 16 row.Report.aux_bytes;
  Alcotest.(check (float 1e-9)) "saved rate" (2. /. 12.)
    (Report.saved_rate row)

let test_report_rendering () =
  let report = Analyzer.run (module Toy) in
  let t1 = Report.table1 [ (module Toy) ] in
  Alcotest.(check bool) "table1 lists a" true
    (Astring.String.is_infix ~affix:"double a[10]" t1);
  Alcotest.(check bool) "table1 lists it" true
    (Astring.String.is_infix ~affix:"int it" t1);
  let t2 = Report.table2 [ report ] in
  Alcotest.(check bool) "table2 row" true
    (Astring.String.is_infix ~affix:"TOY(a)" t2);
  Alcotest.(check bool) "table2 rate" true
    (Astring.String.is_infix ~affix:"20.0%" t2);
  let t3 = Report.table3 [ Report.table3_row (module Toy) report ] in
  Alcotest.(check bool) "table3 row" true
    (Astring.String.is_infix ~affix:"TOY" t3)

(* ------------------------------------------------------------------ *)
(* Span views                                                          *)
(* ------------------------------------------------------------------ *)

let bits a = Array.map Int64.bits_of_float a

(* Every app's plain-float instance, one iteration in. *)
let float_instances () =
  List.map
    (fun (module A : App.S) ->
      let module I = A.Float in
      let st = I.create () in
      I.run st ~from:0 ~until:1;
      (A.name, (module A : App.S), I.float_vars st, I.int_vars st))
    Scvad_npb.Suite.all

(* Write [values] back in spans of 1..7 elements taken from a source
   array that holds them after three [pad] slots: every [lo], [hi] and
   [off] the walker can produce, not only whole variables. *)
let write_in_pieces ~pad (v : 'a Variable.t) values =
  let spe = v.Variable.spe and n = Variable.elements v in
  let src = Array.append (Array.make 3 pad) values in
  let lo = ref 0 and width = ref 1 in
  while !lo < n do
    let hi = min n (!lo + !width) in
    v.Variable.write !lo hi src (3 + (!lo * spe));
    lo := hi;
    width := 1 + (!width mod 7)
  done

(* Snapshot, scribble [flip]ped values, restore; then zero the view and
   rewrite the snapshot in pieces.  [same] compares two snapshots. *)
let scribble_and_restore ~name ~pad ~flip ~zero ~same (v : 'a Variable.t) =
  let snap = Variable.snapshot v in
  write_in_pieces ~pad v (Array.map flip snap);
  if same (Variable.snapshot v) snap then
    Alcotest.failf "%s: the scribble changed nothing" name;
  Variable.restore v snap;
  Alcotest.(check bool) (name ^ " restored bit for bit") true
    (same (Variable.snapshot v) snap);
  write_in_pieces ~pad v (Array.make (Array.length snap) zero);
  write_in_pieces ~pad v snap;
  Alcotest.(check bool) (name ^ " rewritten in pieces") true
    (same (Variable.snapshot v) snap)

let test_snapshot_scribble_restore () =
  List.iter
    (fun (app, _, fvars, ivars) ->
      List.iter
        (fun (v : float Variable.t) ->
          scribble_and_restore ~name:(app ^ "." ^ v.Variable.name)
            ~pad:Float.nan ~flip:(fun x -> -.x -. 1.) ~zero:0.
            ~same:(fun a b -> bits a = bits b)
            v)
        fvars;
      List.iter
        (fun { Variable.view = v; _ } ->
          scribble_and_restore ~name:(app ^ "." ^ v.Variable.name)
            ~pad:min_int ~flip:lnot ~zero:0 ~same:( = ) v)
        ivars)
    (float_instances ())

(* A pruned checkpoint under random masks (every float variable and
   every [By_taint] int): after a restore into a fresh instance the
   covered slots hold the saved values and every uncovered slot, and
   only those, holds the poison. *)
let test_pruned_poison_exactly_uncovered () =
  let rng = Random.State.make [| 29 |] in
  let random_mask v =
    Array.init (Variable.elements v) (fun _ -> Random.State.bool rng)
  in
  List.iter
    (fun (app, (module A : App.S), fvars, ivars) ->
      let fmasks = List.map random_mask fvars in
      let tainted =
        List.filter (fun iv -> iv.Variable.crit = Variable.By_taint) ivars
      in
      let imasks = List.map (fun iv -> random_mask iv.Variable.view) tainted in
      let var_report ~kind (v : _ Variable.t) mask =
        Criticality.of_mask ~name:v.Variable.name ~shape:v.Variable.shape
          ~spe:v.Variable.spe ~kind mask
      in
      let report =
        {
          Criticality.app;
          at_iteration = 1;
          analyzed_until = 1;
          mode = Criticality.Reverse_gradient;
          tape_nodes = 0;
          tape_profile = None;
          sweep_profile = None;
          vars =
            List.map2 (var_report ~kind:Criticality.Float_var) fvars fmasks
            @ List.map2
                (fun iv -> var_report ~kind:Criticality.Int_var iv.Variable.view)
                tainted imasks;
        }
      in
      let file =
        Pruned.snapshot ~report ~app ~iteration:1 ~float_vars:fvars
          ~int_vars:ivars ()
      in
      let module I = A.Float in
      let fresh = I.create () in
      ignore
        (Pruned.restore file ~float_vars:(I.float_vars fresh)
           ~int_vars:(I.int_vars fresh));
      (* [v] was saved under [mask] (all-critical when absent: saved in
         full, poison-free), [v'] restored from the file. *)
      let check (type a) ~same ~poisoned ~mask (v : a Variable.t) (v' : a Variable.t)
          =
        let saved = Variable.snapshot v and got = Variable.snapshot v' in
        let all = Array.for_all Fun.id mask in
        Array.iteri
          (fun slot x ->
            let covered = all || mask.(slot / v.Variable.spe) in
            let ok = if covered then same x saved.(slot) else poisoned x in
            if not ok then
              Alcotest.failf "%s.%s slot %d: covered %b" app v.Variable.name
                slot covered)
          got
      in
      List.iteri
        (fun i v ->
          check
            ~same:(fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
            ~poisoned:Float.is_nan ~mask:(List.nth fmasks i) v
            (List.nth (I.float_vars fresh) i))
        fvars;
      List.iteri
        (fun i iv ->
          let view = iv.Variable.view in
          let mask =
            match
              List.find_index (fun t -> t.Variable.view == view) tainted
            with
            | Some k -> List.nth imasks k
            | None -> [| true |]
          in
          check ~same:( = )
            ~poisoned:(( = ) (Scvad_checkpoint.Failure.int_poison_value Nan))
            ~mask view
            (List.nth (I.int_vars fresh) i).Variable.view)
        ivars)
    (float_instances ())

(* A sanitized batch of [writes], one per shard, on one view. *)
let sanitized_writes (v : 'a Variable.t) writes =
  Scvad_sanitize.Sanitize.arm ();
  Fun.protect
    ~finally:(fun () ->
      if Scvad_sanitize.Sanitize.armed () then
        ignore (Scvad_sanitize.Sanitize.disarm ()))
    (fun () ->
      Scvad_par.Pool.with_pool ~jobs:2 (fun pool ->
          ignore
            (Scvad_par.Pool.map ~sanitize:true pool
               (fun (lo, hi) ->
                 v.Variable.write lo hi
                   (Array.make ((hi - lo) * v.Variable.spe) v.Variable.fill)
                   0)
               writes));
      Scvad_sanitize.Sanitize.disarm ())

let test_one_span_per_write () =
  let cells = Array.make 32 0. in
  let pair =
    Variable.make ~name:"pair" ~shape:(Scvad_nd.Shape.create [ 16 ]) ~spe:2
      ~fill:0.
      ~read:(fun lo hi dst off ->
        Array.blit cells (2 * lo) dst off (2 * (hi - lo)))
      ~write:(fun lo hi src off ->
        Array.blit src off cells (2 * lo) (2 * (hi - lo)))
      ()
  in
  let flat =
    Variable.of_array ~name:"flat" (Scvad_nd.Shape.create [ 16 ])
      (Array.make 16 0.)
  in
  let ints =
    Variable.int_of_array ~name:"ints" ~crit:Variable.By_taint
      (Scvad_nd.Shape.create [ 16 ])
      (Array.make 16 0)
  in
  let check (type a) (v : a Variable.t) =
    let spe = v.Variable.spe in
    (* A batch of one runs inline, unsanitized: the second shard's
       empty write records nothing. *)
    let one = sanitized_writes v [ (3, 10); (12, 12) ] in
    Alcotest.(check int) (v.Variable.name ^ ": one span") 1
      one.Scvad_sanitize.Sanitize.spans;
    let two = sanitized_writes v [ (0, 5); (4, 9) ] in
    Alcotest.(check int) (v.Variable.name ^ ": one span per shard") 2
      two.Scvad_sanitize.Sanitize.spans;
    match two.Scvad_sanitize.Sanitize.witnesses with
    | [ w ] ->
        Alcotest.(check (pair int int))
          (v.Variable.name ^ ": overlap in scalar slots")
          (4 * spe, 5 * spe)
          (w.Scvad_sanitize.Sanitize.w_lo, w.Scvad_sanitize.Sanitize.w_hi)
    | ws -> Alcotest.failf "%d witnesses, expected one" (List.length ws)
  in
  check pair;
  check flat;
  check ints.Variable.view

(* Every app's every integer variable reports a whole write as one
   sanitizer span, the scalar one-element views included. *)
let test_int_writes_sanitized () =
  List.iter
    (fun (app, _, _, ivars) ->
      List.iter
        (fun { Variable.view = v; _ } ->
          let n = Variable.elements v in
          let snap = Variable.snapshot v in
          let stats = sanitized_writes v [ (0, n); (n, n) ] in
          Variable.restore v snap;
          Alcotest.(check int)
            (app ^ "." ^ v.Variable.name ^ ": one span")
            1 stats.Scvad_sanitize.Sanitize.spans)
        ivars)
    (float_instances ())

let suites =
  [ ( "core.analyzer",
      [ Alcotest.test_case "reverse on toy app" `Quick test_reverse_toy;
        Alcotest.test_case "three modes agree" `Quick test_modes_agree_on_toy;
        Alcotest.test_case "mid-run checkpoint boundary" `Quick
          test_analyze_mid_run;
        Alcotest.test_case "bad arguments" `Quick test_analyze_bad_args ] );
    ( "core.harness",
      [ Alcotest.test_case "crash/restart full checkpoint" `Quick
          test_crash_restart_full;
        Alcotest.test_case "crash/restart pruned + poisoned" `Quick
          test_crash_restart_pruned_poisoned;
        Alcotest.test_case "pruned restore poisons uncritical" `Quick
          test_pruned_restore_poisons_uncritical ] );
    ( "core.report",
      [ Alcotest.test_case "storage accounting" `Quick test_storage_accounting;
        Alcotest.test_case "table rendering" `Quick test_report_rendering ] );
    ( "core.spans",
      [ Alcotest.test_case "snapshot, scribble, restore (every app)" `Quick
          test_snapshot_scribble_restore;
        Alcotest.test_case "pruned restore poisons exactly the uncovered"
          `Quick test_pruned_poison_exactly_uncovered;
        Alcotest.test_case "one sanitizer span per write" `Quick
          test_one_span_per_write;
        Alcotest.test_case "every app's int writes are sanitized" `Quick
          test_int_writes_sanitized ] ) ]
