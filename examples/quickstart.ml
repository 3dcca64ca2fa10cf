(* Quickstart: the whole pipeline on twenty lines of application code.

   1. reverse-mode AD on a two-variable function (the paper's Fig. 1);
   2. a tiny iterative application with an over-allocated array;
   3. scrutiny of its checkpoint variables (who is critical?);
   4. a pruned checkpoint, a poisoned restore, and verification.

   Run with: dune exec examples/quickstart.exe *)

open Scvad_ad
open Scvad_core

(* ------------------------------------------------------------------ *)
(* 1. Reverse-mode AD in isolation (paper Fig. 1: f = (x + y) * a * x) *)
(* ------------------------------------------------------------------ *)

let () =
  let tape = Tape.create () in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let x = Reverse.var tape 3. in
  let y = Reverse.var tape 4. in
  let a = S.of_float 2.5 in
  let f = S.((x +. y) *. a *. x) in
  let g = Reverse.backward tape f in
  Printf.printf "== reverse-mode AD (Fig. 1)\n";
  Printf.printf "f(3,4) = %g, df/dx = %g, df/dy = %g  (%d tape nodes)\n\n"
    (Reverse.value f) (Reverse.grad g x) (Reverse.grad g y) (Tape.length tape)

(* ------------------------------------------------------------------ *)
(* 2. A tiny application with an over-allocated state array            *)
(* ------------------------------------------------------------------ *)

(* 16 slots allocated, but the algorithm only ever touches the first
   12 — the "imperfect coding" pattern the paper finds all over NPB. *)
module Demo : App.S = struct
  let name = "demo"
  let description = "toy relaxation with an over-allocated state array"
  let default_niter = 10
  let analysis_niter = 2
  let int_taint_masks = None

  module Make (S : Scalar.S) = struct
    type scalar = S.t
    type state = { a : S.t array; mutable iter_done : int }

    let create () =
      { a = Array.init 16 (fun i -> S.of_float (1. +. float_of_int i)); iter_done = 0 }

    let run st ~from ~until =
      for _ = from to until - 1 do
        for i = 1 to 10 do
          st.a.(i) <-
            S.(
              (of_float 0.5 *. st.a.(i))
              +. (of_float 0.25 *. (st.a.(i - 1) +. st.a.(i + 1))))
        done;
        st.iter_done <- st.iter_done + 1
      done

    let iterations_done st = st.iter_done

    let output st =
      let acc = ref S.zero in
      for i = 0 to 11 do
        acc := S.(!acc +. st.a.(i))
      done;
      !acc

    let float_vars st =
      [ Variable.of_array ~name:"a" ~doc:"relaxation state"
          (Scvad_nd.Shape.create [ 16 ])
          st.a ]

    let int_vars st =
      [ Variable.int_scalar ~name:"it" ~doc:"main loop index"
          ~crit:(Variable.Always_critical "main loop index")
          ~get:(fun () -> st.iter_done)
          ~set:(fun v -> st.iter_done <- v) ]
  end

  module Float = Make (Float_scalar)
end

(* ------------------------------------------------------------------ *)
(* 3. Scrutinize                                                       *)
(* ------------------------------------------------------------------ *)

let report = Analyzer.run (module Demo)

let () =
  Printf.printf "== scrutiny of the demo app\n";
  List.iter
    (fun v ->
      Printf.printf "%-3s critical %2d / uncritical %2d   spans %s\n"
        v.Criticality.name (Criticality.critical v) (Criticality.uncritical v)
        (Scvad_checkpoint.Regions.to_string v.Criticality.regions))
    report.Criticality.vars;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* 4. Crash, pruned restart with NaN poison, verification              *)
(* ------------------------------------------------------------------ *)

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "scvad_quickstart" in
  let store = Scvad_checkpoint.Store.create dir in
  let e =
    Harness.crash_restart_experiment ~report ~store ~every:3 ~crash_at:7
      ~poison:Scvad_checkpoint.Failure.Nan (module Demo)
  in
  Printf.printf "== crash/restart with a pruned, NaN-poisoned checkpoint\n";
  Printf.printf "golden output    = %.15g\n" e.Harness.golden.Harness.output;
  Printf.printf "restarted output = %.15g\n" e.Harness.restarted.Harness.output;
  Printf.printf "verification     = %s\n"
    (if e.Harness.verified then "SUCCESSFUL" else "FAILED");
  Scvad_checkpoint.Store.wipe store
