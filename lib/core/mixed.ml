(* Mixed-precision checkpointing — the paper's §VII future work, built
   end to end.

   A plan splits each float variable by impact magnitude: high-impact
   elements are stored in double precision, low-impact elements in
   single precision, uncritical elements not at all.  The restart
   experiment measures the output perturbation this causes and compares
   it with the first-order prediction sum |g_i| * |x_i - fl32(x_i)|. *)

open Scvad_ad
module F = Scvad_checkpoint.Ckpt_format
module Regions = Scvad_checkpoint.Regions

type plan = {
  name : string;
  high : Regions.t; (* double precision *)
  low : Regions.t; (* single precision *)
}

(* Suffix of the companion single-precision section. *)
let f32_suffix = ".f32"

let plan_of_impact ~threshold (v : Impact.var_impact) =
  let classes = Impact.classify v ~threshold in
  {
    name = v.Impact.name;
    high = Regions.of_mask (Array.map (fun c -> c = Impact.High_impact) classes);
    low = Regions.of_mask (Array.map (fun c -> c = Impact.Low_impact) classes);
  }

let plans_of_report ~threshold (r : Impact.report) =
  List.map (plan_of_impact ~threshold) r.Impact.vars

let plan_for plans name = List.find_opt (fun p -> p.name = name) plans

(* Round to IEEE single precision (what an F32 payload stores). *)
let to_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* Mixed-precision snapshot: per planned variable, a double-precision
   section over the high-impact regions plus a single-precision
   companion over the low-impact regions.  Unplanned variables and
   integers stay full. *)
let snapshot ~plans ~app ~iteration
    ~(float_vars : Float_scalar.t Variable.t list)
    ~(int_vars : Variable.int_t list) () =
  let float_sections =
    List.concat_map
      (fun (v : Float_scalar.t Variable.t) ->
        match plan_for plans v.Variable.name with
        | None -> [ Pruned.section ~payload:Pruned.f64 v ]
        | Some p ->
            [ Pruned.section ~regions:p.high ~payload:Pruned.f64 v;
              (* Round now, so the in-memory payload already carries
                 single precision and encoding is lossless. *)
              Pruned.section ~regions:p.low
                ~name:(v.Variable.name ^ f32_suffix)
                ~payload:(fun a -> F.F32 (Array.map to_f32 a))
                v ])
      float_vars
  in
  {
    F.app;
    iteration;
    sections =
      float_sections
      @ List.map
          (fun (iv : Variable.int_t) ->
            Pruned.section ~payload:Pruned.i64 iv.Variable.view)
          int_vars;
  }

(* Restore: the double-precision base section, then the single-precision
   companion over it; remaining (uncritical) slots hold poison. *)
let restore ?(poison = Scvad_checkpoint.Failure.Nan) (file : F.file)
    ~float_vars ~int_vars =
  Pruned.restore_files ~who:"Mixed.restore" ~poison
    ~names:(fun n -> [ n; n ^ f32_suffix ])
    [ file ] ~float_vars ~int_vars;
  file.F.iteration

(* ------------------------------------------------------------------ *)
(* The threshold experiment                                            *)
(* ------------------------------------------------------------------ *)

type experiment = {
  threshold : float;
  golden_output : float;
  restarted_output : float;
  abs_error : float; (* measured |golden - restarted| *)
  predicted_error : float; (* first-order bound sum |g_i| |x_i - fl32 x_i| *)
  full_bytes : int; (* all-double checkpoint payload *)
  mixed_bytes : int; (* mixed-precision checkpoint payload *)
  low_elements : int;
  high_elements : int;
  dropped_elements : int;
}

(* Run the mixed-precision restart at checkpoint boundary [at_iter]
   with the given impact threshold and measure the output error. *)
let experiment ?(at_iter = 1) ?niter ~threshold (module A : App.S) =
  let niter = Option.value niter ~default:A.default_niter in
  (* The impact window covers the whole remaining run, so the
     first-order prediction accounts for error growth across every
     iteration a restart would replay. *)
  let impact = Analyzer.analyze_impact ~at_iter ~niter (module A) in
  let plans = plans_of_report ~threshold impact in
  let module I = A.Float in
  (* Golden. *)
  let golden =
    let st = I.create () in
    I.run st ~from:0 ~until:niter;
    I.output st
  in
  (* Snapshot at the boundary. *)
  let st = I.create () in
  I.run st ~from:0 ~until:at_iter;
  let file =
    snapshot ~plans ~app:A.name ~iteration:at_iter
      ~float_vars:(I.float_vars st) ~int_vars:(I.int_vars st) ()
  in
  (* First-order error prediction over the low-impact elements. *)
  let predicted = ref 0. in
  List.iter
    (fun (v : Float_scalar.t Variable.t) ->
      match
        (plan_for plans v.Variable.name, Impact.find_opt impact v.Variable.name)
      with
      | Some p, Some vi ->
          let scalars = Variable.snapshot v in
          Regions.iter_elements p.low (fun e ->
              for k = 0 to v.Variable.spe - 1 do
                let x = scalars.((e * v.Variable.spe) + k) in
                predicted :=
                  !predicted
                  +. (vi.Impact.magnitude.(e) *. Float.abs (x -. to_f32 x))
              done)
      | _ -> ())
    (I.float_vars st);
  (* Restore into a fresh state and finish. *)
  let st2 = I.create () in
  let from =
    restore ~poison:Scvad_checkpoint.Failure.Nan file
      ~float_vars:(I.float_vars st2) ~int_vars:(I.int_vars st2)
  in
  I.run st2 ~from ~until:niter;
  let restarted = I.output st2 in
  (* Storage accounting. *)
  let full_file =
    Pruned.snapshot ~app:A.name ~iteration:at_iter
      ~float_vars:(I.float_vars st) ~int_vars:(I.int_vars st) ()
  in
  let low, high, dropped =
    List.fold_left
      (fun (l, h, d) p ->
        let total =
          match Impact.find_opt impact p.name with
          | Some vi -> Array.length vi.Impact.magnitude
          | None -> 0
        in
        ( l + Regions.cardinal p.low,
          h + Regions.cardinal p.high,
          d + total - Regions.cardinal p.low - Regions.cardinal p.high ))
      (0, 0, 0) plans
  in
  {
    threshold;
    golden_output = golden;
    restarted_output = restarted;
    abs_error = Float.abs (golden -. restarted);
    predicted_error = !predicted;
    full_bytes = (Pruned.storage_of_file full_file).Pruned.payload_bytes;
    mixed_bytes = (Pruned.storage_of_file file).Pruned.payload_bytes;
    low_elements = low;
    high_elements = high;
    dropped_elements = dropped;
  }
