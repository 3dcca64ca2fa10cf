(* Criticality reports: the per-variable element masks the analysis
   produces, with the counts the paper reports in Table II. *)

type kind = Float_var | Int_var

type var_report = {
  name : string;
  shape : Scvad_nd.Shape.t;
  spe : int;
  kind : kind;
  mask : bool array; (* per logical element: critical? *)
  regions : Scvad_checkpoint.Regions.t; (* critical spans (aux file) *)
}

let of_mask ~name ~shape ~spe ~kind mask =
  if Array.length mask <> Scvad_nd.Shape.size shape then
    invalid_arg "Criticality.of_mask: mask length does not match shape";
  { name; shape; spe; kind; mask; regions = Scvad_checkpoint.Regions.of_mask mask }

let total v = Array.length v.mask
let critical v = Scvad_checkpoint.Regions.cardinal v.regions
let uncritical v = total v - critical v
let uncritical_rate v = float_of_int (uncritical v) /. float_of_int (total v)

type mode = Reverse_gradient | Forward_probe | Activity_dependence

let mode_name = function
  | Reverse_gradient -> "reverse-gradient"
  | Forward_probe -> "forward-probe"
  | Activity_dependence -> "activity-dependence"

(* How the recording was held in memory.  [None] means the dense tape
   (everything stored); [Some p] means the segmented tape ran under a
   node budget and [p] accounts for the recompute-vs-store trade the
   schedule made. *)
type tape_profile = {
  t_schedule : string; (* "binomial" | "planned[n]" *)
  t_budget_nodes : int;
  t_segments : int;
  t_snapshots : int;
  t_replays : int;
  t_replayed_nodes : int;
  t_peak_live_nodes : int;
}

(* What the backward sweep actually did.  [w_visited_nodes] counts the
   nodes whose adjoint was nonzero when inspected — the active subgraph
   the frontier sweep is proportional to; the zero-adjoint rest IS the
   uncriticality signal, never walked.  Absent for forward-probe runs
   (no tape, no sweep). *)
type sweep_profile = {
  w_visited_nodes : int;
  w_swept_nodes : int; (* sweep range: output + 1 *)
  w_active_fraction : float; (* visited / swept; 0 on an empty sweep *)
}

type report = {
  app : string;
  at_iteration : int; (* checkpoint boundary the analysis models *)
  analyzed_until : int; (* main-loop iterations covered *)
  mode : mode;
  tape_nodes : int; (* size of the recorded data-flow graph *)
  tape_profile : tape_profile option; (* memory-budgeted recording? *)
  sweep_profile : sweep_profile option; (* what backward visited *)
  vars : var_report list;
}

let find report name =
  match List.find_opt (fun v -> v.name = name) report.vars with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf
           "Criticality.find: report for %S has no variable %S (it has: %s)"
           report.app name
           (String.concat ", " (List.map (fun v -> v.name) report.vars)))

let find_opt report name =
  List.find_opt (fun v -> v.name = name) report.vars

(* Aggregate uncritical rate over the float variables, weighted by
   element count — the per-benchmark number behind Table III's savings. *)
let aggregate_uncritical_rate report =
  let tot, unc =
    List.fold_left
      (fun (t, u) v -> (t + total v, u + uncritical v))
      (0, 0) report.vars
  in
  if tot = 0 then 0. else float_of_int unc /. float_of_int tot
