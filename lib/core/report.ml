(* Emitters for the paper's three tables.

   Table I  — variables necessary for checkpointing (the registry);
   Table II — uncritical / total / rate per variable;
   Table III — checkpoint storage, original vs optimized;
   then the checkpoint-policy comparison and the Young operational
   model built on Table III's savings.                                  *)

let buf_table rows =
  (* Simple column alignment over a list of string rows. *)
  match rows with
  | [] -> ""
  | header :: _ ->
      let cols = List.length header in
      let width c =
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row c)))
          0 rows
      in
      let widths = List.init cols width in
      let line row =
        String.concat "  "
          (List.mapi
             (fun c cell -> Printf.sprintf "%-*s" (List.nth widths c) cell)
             row)
      in
      let sep =
        String.concat "  "
          (List.map (fun w -> String.make w '-') widths)
      in
      (match rows with
      | h :: rest ->
          String.concat "\n" ((line h :: sep :: List.map line rest) @ [ "" ])
      | [] -> "")

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let declarations (module A : App.S) =
  let module I = A.Float in
  let state = I.create () in
  List.map Variable.declaration (I.float_vars state)
  @ List.map
      (fun iv -> Variable.declaration ~ctype:"int" iv.Variable.view)
      (I.int_vars state)

let table1 apps =
  let rows =
    [ "Name"; "Variables and their data structures" ]
    :: List.map
         (fun (module A : App.S) ->
           [ String.uppercase_ascii A.name;
             String.concat ", " (declarations (module A)) ])
         apps
  in
  "TABLE I: Variables necessary for checkpointing (class S)\n"
  ^ buf_table rows

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

let percent x = Printf.sprintf "%.1f%%" (100. *. x)

(* Rows for the float variables of one report (the paper's Table II
   lists float variables only; integer variables are all-critical). *)
let table2_rows (r : Criticality.report) =
  List.filter_map
    (fun (v : Criticality.var_report) ->
      match v.Criticality.kind with
      | Criticality.Int_var -> None
      | Criticality.Float_var ->
          Some
            [ Printf.sprintf "%s(%s)" (String.uppercase_ascii r.Criticality.app)
                v.Criticality.name;
              string_of_int (Criticality.uncritical v);
              string_of_int (Criticality.total v);
              percent (Criticality.uncritical_rate v) ])
    r.Criticality.vars

let table2 reports =
  let rows =
    [ "Benchmark(variable)"; "Uncritical"; "Total"; "Uncritical rate" ]
    :: List.concat_map table2_rows reports
  in
  "TABLE II: Number of uncritical elements\n" ^ buf_table rows

(* ------------------------------------------------------------------ *)
(* Table III                                                           *)
(* ------------------------------------------------------------------ *)

type table3_row = {
  app : string;
  original_bytes : int; (* full checkpoint payload *)
  optimized_bytes : int; (* pruned checkpoint payload *)
  aux_bytes : int; (* the auxiliary (region bounds) file *)
}

(* The paper's metric compares checkpoint-file payloads; the auxiliary
   file is a separate artifact (it reports FT as 4161kb -> 4097kb, i.e.
   exactly the pruned elements, with the region bounds kept aside). *)
let saved_rate row =
  1. -. (float_of_int row.optimized_bytes /. float_of_int row.original_bytes)

(* Measure one application: snapshot its state full and pruned. *)
let table3_row ?(at_iter = 1) (module A : App.S) (report : Criticality.report)
    =
  let module I = A.Float in
  let state = I.create () in
  I.run state ~from:0 ~until:at_iter;
  let snap r =
    Pruned.snapshot ?report:r ~app:A.name ~iteration:at_iter
      ~float_vars:(I.float_vars state) ~int_vars:(I.int_vars state) ()
  in
  let full = Pruned.storage_of_file (snap None) in
  let pruned = Pruned.storage_of_file (snap (Some report)) in
  {
    app = A.name;
    original_bytes = full.Pruned.payload_bytes;
    optimized_bytes = pruned.Pruned.payload_bytes;
    aux_bytes = pruned.Pruned.aux_bytes;
  }

let kb bytes = Printf.sprintf "%.1fkb" (float_of_int bytes /. 1024.)

let table3 rows =
  let body =
    List.map
      (fun row ->
        [ String.uppercase_ascii row.app;
          kb row.original_bytes;
          kb row.optimized_bytes;
          percent (saved_rate row);
          kb row.aux_bytes ])
      rows
  in
  "TABLE III: Checkpointing storage\n"
  ^ buf_table
      ([ "Benchmark"; "Original"; "Optimized"; "Storage saved"; "Aux file" ]
      :: body)

(* ------------------------------------------------------------------ *)
(* Beyond the paper: checkpoint policies and the operational model     *)
(* ------------------------------------------------------------------ *)

(* Related-work baseline: payload bytes of the second of three
   checkpoints, the first delta an incremental policy writes. *)
let policy_table reports =
  let body =
    List.map
      (fun ((module A : App.S), report) ->
        let c = Incremental.storage_comparison ~checkpoints:3 (module A) report in
        let second l = string_of_int (List.nth l 1) in
        [ String.uppercase_ascii A.name;
          second c.Incremental.full;
          second c.Incremental.pruned;
          second c.Incremental.incremental;
          second c.Incremental.combined ])
      reports
  in
  "CHECKPOINT POLICY COMPARISON: payload bytes of the steady-state \
   (second) checkpoint\n"
  ^ buf_table
      ([ "Benchmark"; "Full"; "Pruned"; "Incremental"; "Combined" ] :: body)

(* A canonical large system: a full checkpoint costs 60 s, the MTBF is
   24 h and a restart costs 300 s. *)
let young_params =
  { Scvad_checkpoint.Interval.checkpoint_cost = 60.; mtbf = 86_400.;
    restart_cost = 300. }

let operational_table rows =
  let body =
    List.map
      (fun row ->
        let kept =
          float_of_int row.optimized_bytes /. float_of_int row.original_bytes
        in
        let c =
          Scvad_checkpoint.Interval.compare_pruning young_params
            ~kept_fraction:kept
        in
        [ String.uppercase_ascii row.app;
          percent kept;
          Printf.sprintf "%.0f s" c.Scvad_checkpoint.Interval.full_tau;
          Printf.sprintf "%.0f s" c.Scvad_checkpoint.Interval.pruned_tau;
          Printf.sprintf "%.2f%%"
            (100.
            *. (1.
               -. c.Scvad_checkpoint.Interval.pruned_overhead
                  /. c.Scvad_checkpoint.Interval.full_overhead)) ])
      rows
  in
  "OPERATIONAL MODEL (Young): C_full=60s, MTBF=24h, R=300s\n"
  ^ buf_table
      ([ "Benchmark"; "Kept fraction"; "Tau full"; "Tau pruned";
         "Overhead drop" ]
      :: body)
