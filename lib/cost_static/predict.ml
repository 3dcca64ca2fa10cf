(* Per-app node-count prediction: drive a compiled kernel through
   exactly the protocol `Analyzer.reverse_analysis` uses (run to the
   checkpoint boundary, lift every element of every checkpoint
   variable, run the analyzed window, evaluate the output) with its
   scalar recording onto a counting tape, and read the counter instead
   of a tape.

   The per-iteration split mirrors the segmented tape: segment costs
   come out for free, and summing them reproduces the dense total
   because every kernel's [run ~from ~until] is literally a loop over
   iterations. *)

open Scvad_ad
module Counting = Tape.Counting
module R = Scvad_float.Counting_reverse
module App = Scvad_core.App
module Variable = Scvad_core.Variable

type var_lift = {
  lv_name : string;
  lv_scalars : int;  (** elements × slots *)
  lv_lifted : int;  (** fresh constants pushed by the lift *)
}

type t = {
  p_app : string;
  p_analysis_niter : int;
  p_at_iter : int;
  p_lift : int;
  p_vars : var_lift list;
  p_segments : int array;  (** nodes per analyzed iteration *)
  p_output : int;
  p_total : int;
}

(* Nodes [f] pushes onto [tape]. *)
let count tape f =
  let before = Counting.length tape in
  f ();
  Counting.length tape - before

(* The analyzer protocol against a kernel instantiated on the counting
   scalar of [tape]. *)
let run_protocol tape
    (module I : App.INSTANCE with type scalar = Reverse.t) ~at_iter ~niter =
  let st = I.create () in
  I.run st ~from:0 ~until:at_iter;
  let vars =
    List.map
      (fun v ->
        {
          lv_name = v.Variable.name;
          lv_scalars = Variable.scalars v;
          lv_lifted =
            count tape (fun () ->
                ignore (Variable.lift_capture v (R.lift tape)));
        })
      (I.float_vars st)
  in
  let lift = List.fold_left (fun n v -> n + v.lv_lifted) 0 vars in
  let segments =
    Array.init (niter - at_iter) (fun i ->
        let s = at_iter + i in
        count tape (fun () -> I.run st ~from:s ~until:(s + 1)))
  in
  let output = count tape (fun () -> ignore (I.output st)) in
  (lift, vars, segments, output)

(* Raises the analyzer's own [Invalid_argument] for a window
   [Analyzer.run] would reject. *)
let predict ?(at_iter = 0) ?niter (module A : App.S) : t =
  let niter = Option.value niter ~default:A.analysis_niter in
  Scvad_core.Analyzer.check_window "Predict.predict" ~at_iter ~niter;
  let tape = Counting.create () in
  let module S = R.Scalar_of (struct
    let tape = tape
  end) in
  let lift, vars, segments, output =
    run_protocol tape (module A.Make (S)) ~at_iter ~niter
  in
  {
    p_app = A.name;
    p_analysis_niter = niter;
    p_at_iter = at_iter;
    p_lift = lift;
    p_vars = vars;
    p_segments = segments;
    p_output = output;
    p_total = lift + Array.fold_left ( + ) 0 segments + output;
  }

(* Instantiate an ADI-family kernel ([Make_sized (G) (S)]) at an
   arbitrary grid size and count its nodes over [niter] iterations from
   boundary 0.  This is what the polynomial fit samples. *)
let predict_sized (world : World.t) ~file ~grid ~niter : int =
  match List.assoc_opt file world.World.sized with
  | None -> invalid_arg ("Predict.predict_sized: no sized kernel " ^ file)
  | Some (module F : World.SIZED) ->
      let tape = Counting.create () in
      let module S = R.Scalar_of (struct
        let tape = tape
      end) in
      let module I =
        F
          (struct
            let grid = grid
          end)
          (S)
      in
      let lift, _, segments, output =
        run_protocol tape (module I) ~at_iter:0 ~niter
      in
      lift + Array.fold_left ( + ) 0 segments + output
