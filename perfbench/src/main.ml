(* The scvad benchmark: one workload per process.

   Usage:
     main.exe --workload scrutinize|budgeted|checkpoint|static
              --seed N --seconds S --trace 0|1 [--inject-mismatch]
     main.exe --write-refs DIR

   Run from the repository root: the references are read from
   perfbench/refs, the static workload reads lib/, and checkpoint stores
   and traces go to .perfbench/.  Set-up runs three times and its median
   is [setup_s].  The measured phase then repeats whole passes of the
   workload until [--seconds] have elapsed and the workload's minimum
   number of passes ran; [total_s] is the median pass.  With [--trace 1]
   half of that time runs untraced passes and half traced ones, and the
   per-layer metrics are medians over the traced passes.  The last
   stdout line is the result object. *)

module Analyzer = Scvad_core.Analyzer
module Config = Analyzer.Config
module Crit = Scvad_core.Criticality
module Pruned = Scvad_core.Pruned
module Harness = Scvad_core.Harness
module Store = Scvad_checkpoint.Store
module Ckpt_format = Scvad_checkpoint.Ckpt_format
module Regions = Scvad_checkpoint.Regions
module Failure = Scvad_checkpoint.Failure
module Suite = Scvad_npb.Suite
module Trace = Perfbench.Trace
module Stats = Perfbench.Stats
module Refs = Perfbench.Refs

let span = Trace.with_span
let now = Unix.gettimeofday

let find_app name =
  match Suite.find name with
  | Some app -> app
  | None -> failwith ("no benchmark application named " ^ name)

(* ------------------------------------------------------------------ *)
(* Operations and counters                                             *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* One checked operation: [f] returns the list of problems found in its
   output; a problem or an exception counts the operation as failed. *)
let op what f =
  incr attempted;
  let problems =
    match f () with
    | problems -> problems
    | exception e -> [ "unexpected exception " ^ Printexc.to_string e ]
  in
  if problems <> [] then begin
    incr failed;
    Printf.eprintf "perfbench: FAILED %s: %s\n%!" what
      (String.concat "; " problems)
  end

let counters : (string, float) Hashtbl.t = Hashtbl.create 128

let add name v =
  Hashtbl.replace counters name
    (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)
(* ------------------------------------------------------------------ *)

let per_app_metrics =
  [
    ("s", "s");
    ("cpu_s", "s");
    ("tape_nodes", "count");
    ("visited_nodes", "count");
    ("alloc_mb", "MB");
    ("replays", "count");
    ("replayed_nodes", "count");
    ("peak_live_nodes", "count");
  ]

let per_layer =
  List.concat_map
    (fun app ->
      List.map
        (fun (m, u) -> (Printf.sprintf "analyzer.%s.%s" app m, u))
        per_app_metrics)
    Suite.names
  @ [
      ("pool.busy_ratio", "ratio");
      ("pruned.snapshot_s", "s");
      ("pruned.restore_s", "s");
      ("pruned.payload_bytes", "B");
      ("pruned.aux_bytes", "B");
      ("store.save_s", "s");
      ("store.load_s", "s");
      ("store.saves", "count");
      ("store.loads", "count");
      ("store.rejected_loads", "count");
      ("store.save_mb", "MB");
      ("store.load_mb", "MB");
      ("store.save_mb_s", "MB/s");
      ("store.load_mb_s", "MB/s");
      ("ckpt_format.encode_s", "s");
      ("ckpt_format.decode_s", "s");
      ("npb.run_s", "s");
      ("npb.iterations", "count");
      ("harness.restart_s", "s");
      ("activity_static.s", "s");
      ("guard.s", "s");
      ("discover.s", "s");
      ("cost_static.s", "s");
      ("racefree.s", "s");
      ("gc.top_heap_mb", "MB");
      ("gc.major_collections", "count");
      ("ft_scrutiny_s", "s");
      ("is_scrutiny_s", "s");
      ("rest_scrutiny_s", "s");
      ("save_s", "s");
      ("restore_s", "s");
      ("full_save_s", "s");
      ("full_restore_s", "s");
      ("ckpt_bytes", "B");
      ("full_ckpt_bytes", "B");
      ("trace.untraced_total_s", "s");
      ("trace.traced_total_s", "s");
      ("trace.overhead_s", "s");
      ("trace.span_coverage", "ratio");
    ]

(* The layers whose spans account for a pass; "bench" spans are the
   benchmark's own. *)
let layers =
  [
    "npb"; "analyzer"; "pruned"; "store"; "ckpt_format"; "harness";
    "activity_static"; "guard"; "discover"; "cost_static"; "racefree";
  ]

(* Per-layer values of one traced pass, from its spans and counters. *)
let layer_values ~pass_s spans =
  let selfs = Trace.self_times spans in
  let self pred = Trace.self_sum pred selfs in
  let named n (s : Trace.span) = s.Trace.name = n in
  let in_layer l (s : Trace.span) = Trace.layer_of s.Trace.name = l in
  let app_s a =
    self (fun s -> named "analyzer.run" s && s.Trace.app = a)
  in
  let values = Hashtbl.create 128 in
  let set k v = Hashtbl.replace values k v in
  List.iter
    (fun app ->
      List.iter
        (fun (m, _) ->
          let k = Printf.sprintf "analyzer.%s.%s" app m in
          set k (if m = "s" then app_s app else counter k))
        per_app_metrics)
    Suite.names;
  let analyzer_s = self (in_layer "analyzer") in
  let cpu_s =
    List.fold_left
      (fun acc a -> acc +. counter (Printf.sprintf "analyzer.%s.cpu_s" a))
      0. Suite.names
  in
  set "pool.busy_ratio" (if analyzer_s > 0. then cpu_s /. analyzer_s else 0.);
  let snap = self (named "pruned.snapshot")
  and snap_full = self (named "pruned.snapshot_full")
  and rest = self (named "pruned.restore")
  and rest_full = self (named "pruned.restore_full")
  and save = self (named "store.save")
  and save_full = self (named "store.save_full")
  and load = self (named "store.load")
  and load_full = self (named "store.load_full") in
  set "pruned.snapshot_s" (snap +. snap_full);
  set "pruned.restore_s" (rest +. rest_full);
  List.iter
    (fun k -> set k (counter k))
    [
      "pruned.payload_bytes"; "pruned.aux_bytes"; "store.saves"; "store.loads";
      "store.rejected_loads"; "store.save_mb"; "store.load_mb";
      "npb.iterations"; "ckpt_bytes"; "full_ckpt_bytes";
    ];
  let store_save_s = save +. save_full and store_load_s = load +. load_full in
  set "store.save_s" store_save_s;
  set "store.load_s" store_load_s;
  let rate mb s = if s > 0. then mb /. s else 0. in
  set "store.save_mb_s" (rate (counter "store.save_mb") store_save_s);
  set "store.load_mb_s" (rate (counter "store.load_mb") store_load_s);
  set "ckpt_format.encode_s" (self (named "ckpt_format.encode"));
  set "ckpt_format.decode_s" (self (named "ckpt_format.decode"));
  set "npb.run_s" (self (in_layer "npb"));
  set "harness.restart_s" (self (in_layer "harness"));
  List.iter
    (fun l -> set (l ^ ".s") (self (in_layer l)))
    [ "activity_static"; "guard"; "discover"; "cost_static"; "racefree" ];
  let gc = Gc.quick_stat () in
  set "gc.top_heap_mb"
    (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  set "gc.major_collections" (counter "gc.major_collections");
  set "ft_scrutiny_s" (app_s "ft");
  set "is_scrutiny_s" (app_s "is");
  set "rest_scrutiny_s" (analyzer_s -. app_s "ft" -. app_s "is");
  set "save_s" (snap +. save);
  set "restore_s" (load +. rest);
  set "full_save_s" (snap_full +. save_full);
  set "full_restore_s" (load_full +. rest_full);
  let layer_s = self (fun s -> List.mem (Trace.layer_of s.Trace.name) layers) in
  set "trace.span_coverage" (layer_s /. pass_s);
  set "trace.traced_total_s" pass_s;
  values

(* ------------------------------------------------------------------ *)
(* Reference keys                                                      *)
(* ------------------------------------------------------------------ *)

let report_refs ~dense (r : Crit.report) =
  let vars =
    List.concat_map
      (fun (v : Crit.var_report) ->
        let k = r.Crit.app ^ "." ^ v.Crit.name in
        [
          ("mask." ^ k, Refs.mask_digest v.Crit.mask);
          ("regions." ^ k, Refs.digest_string (Regions.to_string v.Crit.regions));
        ])
      r.Crit.vars
  in
  if dense then
    ("tape_nodes." ^ r.Crit.app, string_of_int r.Crit.tape_nodes) :: vars
  else vars

let golden_key name niter = Printf.sprintf "golden.%s.%d" name niter

(* ------------------------------------------------------------------ *)
(* Runtime analysis (scrutinize, budgeted)                             *)
(* ------------------------------------------------------------------ *)

let dense_config = Config.(default |> with_jobs 1)

let analyze ~refs ~config ~dense (module A : Scvad_core.App.S) =
  op ("analyze " ^ A.name) (fun () ->
      let pre = "analyzer." ^ A.name ^ "." in
      let c0 = Sys.time () and a0 = Gc.allocated_bytes () in
      let r =
        span ~app:A.name "analyzer.run" (fun () ->
            Analyzer.run ~config (module A))
      in
      add (pre ^ "cpu_s") (Sys.time () -. c0);
      add (pre ^ "alloc_mb") ((Gc.allocated_bytes () -. a0) /. 1e6);
      add (pre ^ "tape_nodes") (float_of_int r.Crit.tape_nodes);
      Option.iter
        (fun w -> add (pre ^ "visited_nodes") (float_of_int w.Crit.w_visited_nodes))
        r.Crit.sweep_profile;
      Option.iter
        (fun p ->
          add (pre ^ "replays") (float_of_int p.Crit.t_replays);
          add (pre ^ "replayed_nodes") (float_of_int p.Crit.t_replayed_nodes);
          add (pre ^ "peak_live_nodes") (float_of_int p.Crit.t_peak_live_nodes))
        r.Crit.tape_profile;
      let profile_problem =
        if (not dense) && r.Crit.tape_profile = None then
          [ "budgeted analysis carries no tape profile" ]
        else []
      in
      profile_problem
      @ List.map Refs.describe (Refs.compare refs (report_refs ~dense r)))

(* ------------------------------------------------------------------ *)
(* Checkpoint / restart                                                *)
(* ------------------------------------------------------------------ *)

(* Run length per application: short enough that a pass takes seconds,
   long enough that every application crashes mid-run with two
   checkpoints behind it.  FT needs three iterations for that, and each
   of its runs still costs about a second. *)
let ckpt_niter =
  [
    ("bt", 8); ("sp", 40); ("mg", 4); ("cg", 6); ("lu", 50); ("ft", 3);
    ("ep", 16); ("is", 10);
  ]

(* Save/restore cycles of each kind per application and pass. *)
let cycles = 4

type plan = {
  app : (module Scvad_core.App.S);
  report : Crit.report;
  niter : int;
  every : int;  (** protected-run checkpoint interval *)
  crash : int;  (** the crash strikes while this iteration runs *)
  boundary : int;  (** where the save/restore cycles run *)
  flip_pos : int;  (** corrupted byte, modulo the file size *)
  flip_bit : int;
}

let plan_of ~seed report (module A : Scvad_core.App.S) =
  let niter = List.assoc A.name ckpt_niter in
  let rng = Random.State.make [| seed; Hashtbl.hash A.name |] in
  let every = max 1 (niter / 4) in
  (* two checkpoints precede the crash, so the corrupted newest one has
     a valid predecessor to fall back to *)
  let crash = (2 * every) + Random.State.int rng (niter - (2 * every)) in
  let boundary = 1 + Random.State.int rng crash in
  {
    app = (module A);
    report;
    niter;
    every;
    crash;
    boundary;
    flip_pos = Random.State.int rng 0x3FFFFFFF;
    flip_bit = Random.State.int rng 8;
  }

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let files_equal (a : Ckpt_format.file) (b : Ckpt_format.file) =
  let section_equal (x : Ckpt_format.section) (y : Ckpt_format.section) =
    x.Ckpt_format.name = y.Ckpt_format.name
    && x.Ckpt_format.dims = y.Ckpt_format.dims
    && x.Ckpt_format.spe = y.Ckpt_format.spe
    && x.Ckpt_format.regions = y.Ckpt_format.regions
    &&
    match (x.Ckpt_format.payload, y.Ckpt_format.payload) with
    | F64 p, F64 q | F32 p, F32 q -> bits_equal p q
    | I64 p, I64 q -> p = q
    | _ -> false
  in
  a.Ckpt_format.app = b.Ckpt_format.app
  && a.Ckpt_format.iteration = b.Ckpt_format.iteration
  && List.length a.Ckpt_format.sections = List.length b.Ckpt_format.sections
  && List.for_all2 section_equal a.Ckpt_format.sections b.Ckpt_format.sections

let flip_file_bit path ~pos ~bit =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string data in
  let pos = pos mod Bytes.length b in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* Pruned and full save/restore cycles of the live state at the plan's
   boundary.  Restoring into the live state is deliberate: after a
   pruned restore its uncritical elements hold NaN, and the crash/restart
   that follows must still reproduce the golden output. *)
let save_restore_cycles ~store ~name ~iteration ~report ~float_vars ~int_vars =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let kind report = if report = None then "_full" else "" in
  let cycle ~last report =
    let k = kind report in
    let file =
      span ~app:name ("pruned.snapshot" ^ k) (fun () ->
          Pruned.snapshot ?report ~app:name ~iteration ~float_vars ~int_vars ())
    in
    ignore
      (span ~app:name ("store.save" ^ k) (fun () ->
           Store.save ~sidecar_aux:true store file));
    let bytes = float_of_int (Store.disk_bytes store iteration) in
    add "store.saves" 1.;
    add "store.save_mb" (bytes /. 1e6);
    if last then begin
      add (if report = None then "full_ckpt_bytes" else "ckpt_bytes") bytes;
      if report <> None then begin
        let st = Pruned.storage_of_file file in
        add "pruned.payload_bytes" (float_of_int st.Pruned.payload_bytes);
        add "pruned.aux_bytes" (float_of_int st.Pruned.aux_bytes)
      end
    end;
    (match span ~app:name ("store.load" ^ k) (fun () -> Store.load store iteration) with
    | Error e -> problem "%s load failed: %s" k (Store.describe_error e)
    | Ok loaded ->
        add "store.loads" 1.;
        add "store.load_mb" (bytes /. 1e6);
        if not (files_equal file loaded) then problem "load%s differs from save" k;
        let it =
          span ~app:name ("pruned.restore" ^ k) (fun () ->
              Pruned.restore ~poison:Failure.Nan loaded ~float_vars ~int_vars)
        in
        if it <> iteration then problem "restore%s returned iteration %d" k it;
        if last then begin
          let again =
            Pruned.snapshot ?report ~app:name ~iteration ~float_vars ~int_vars ()
          in
          if not (files_equal again loaded) then
            problem "restored%s state does not snapshot back to its file" k
        end);
    (* the format layer on its own, traced passes only *)
    if !Trace.enabled then begin
      let encoded =
        span ~app:name "ckpt_format.encode" (fun () -> Ckpt_format.encode file)
      in
      let decoded =
        span ~app:name "ckpt_format.decode" (fun () -> Ckpt_format.decode encoded)
      in
      if not (files_equal file decoded) then problem "decode%s differs from encode" k
    end
  in
  for c = 1 to cycles do
    cycle ~last:(c = cycles) None;
    cycle ~last:(c = cycles) (Some report)
  done;
  List.rev !problems

let checkpoint_app ~refs ~work p =
  let (module A : Scvad_core.App.S) = p.app in
  let name = A.name and niter = p.niter in
  let golden_ref = Refs.find refs (golden_key name niter) in
  let check_output what (r : Harness.run_result) =
    let got = Refs.hex_float r.Harness.output in
    match golden_ref with
    | None -> [ Printf.sprintf "%s: no committed golden output" what ]
    | Some g when g <> got -> [ Printf.sprintf "%s: output %s, golden %s" what got g ]
    | Some _ -> []
  in
  op ("golden " ^ name) (fun () ->
      let r =
        span ~app:name "npb.golden_run" (fun () ->
            Harness.golden_run ~niter (module A))
      in
      add "npb.iterations" (float_of_int niter);
      check_output "golden run" r);
  let store_dir = Filename.concat work ("store-" ^ name)
  and cycle_dir = Filename.concat work ("cycles-" ^ name) in
  let store = Store.create store_dir and cycle_store = Store.create cycle_dir in
  Store.wipe store;
  let newest = p.crash / p.every * p.every in
  let newest_file = ref None in
  op ("protected run " ^ name) (fun () ->
      let module I = A.Make (Scvad_ad.Float_scalar) in
      let st = span ~app:name "npb.create" I.create in
      let float_vars = I.float_vars st and int_vars = I.int_vars st in
      let problems = ref [] in
      let rec go it =
        Failure.crash_if ~at:p.crash ~iteration:it;
        span ~app:name "npb.run" (fun () -> I.run st ~from:it ~until:(it + 1));
        add "npb.iterations" 1.;
        let it = it + 1 in
        if it mod p.every = 0 then begin
          let file =
            span ~app:name "pruned.snapshot" (fun () ->
                Pruned.snapshot ~report:p.report ~app:name ~iteration:it
                  ~float_vars ~int_vars ())
          in
          ignore
            (span ~app:name "store.save" (fun () ->
                 Store.save ~sidecar_aux:true store file));
          add "store.saves" 1.;
          add "store.save_mb" (float_of_int (Store.disk_bytes store it) /. 1e6);
          if it = newest then newest_file := Some file
        end;
        if it = p.boundary then
          problems :=
            save_restore_cycles ~store:cycle_store ~name ~iteration:it
              ~report:p.report ~float_vars ~int_vars;
        go it
      in
      match go 0 with
      | () -> [ "the run did not crash" ]
      | exception Failure.Crash { iteration } ->
          if iteration <> p.crash then
            [ Printf.sprintf "crashed at %d, planned %d" iteration p.crash ]
          else !problems);
  op ("restart " ^ name) (fun () ->
      flip_file_bit
        (Store.path_of_iteration store newest)
        ~pos:p.flip_pos ~bit:p.flip_bit;
      (* A flipped bit must never reach a restart as wrong data: the
         load rejects the file, or (a flip in the upper half of the
         8-byte CRC field, which the format does not check) returns
         exactly what was saved. *)
      add "store.loads" 1.;
      let load =
        span ~app:name "store.load" (fun () -> Store.load store newest)
      in
      let intact, load_problems =
        match (load, !newest_file) with
        | Error _, _ ->
            add "store.rejected_loads" 1.;
            (false, [])
        | Ok loaded, Some saved when files_equal loaded saved -> (true, [])
        | Ok _, _ -> (true, [ "a corrupted checkpoint loaded with changed data" ])
      in
      let rr =
        span ~app:name "harness.restart_resilient" (fun () ->
            Harness.restart_resilient ~poison:Failure.Nan ~niter ~store (module A))
      in
      add "npb.iterations" (float_of_int (niter - rr.Harness.restored_iteration));
      let expected_from, expected_skipped =
        if intact then (newest, []) else (newest - p.every, [ newest ])
      in
      load_problems
      @ (if rr.Harness.restored_iteration <> expected_from then
           [ Printf.sprintf "restarted from %d, expected %d"
               rr.Harness.restored_iteration expected_from ]
         else [])
      @ (if List.map fst rr.Harness.skipped <> expected_skipped then
           [ "the restart skipped other checkpoints than the corrupted one" ]
         else [])
      @ check_output "restart" rr.Harness.run);
  rm_rf store_dir;
  rm_rf cycle_dir

(* ------------------------------------------------------------------ *)
(* Static passes                                                       *)
(* ------------------------------------------------------------------ *)

let npb_dir = Filename.concat "lib" "npb"
let refs_dir = Filename.concat "perfbench" "refs"
let work_dir = ".perfbench"

let activity_rows verdicts =
  List.concat_map
    (fun (a : Scvad_activity.Verdict.app_verdicts) ->
      List.map
        (fun (v : Scvad_activity.Verdict.var_verdict) ->
          ( Printf.sprintf "activity.%s.%s" a.Scvad_activity.Verdict.app
              v.Scvad_activity.Verdict.var,
            Printf.sprintf "%s/%d"
              (Scvad_activity.Verdict.class_name v.Scvad_activity.Verdict.class_)
              (Regions.cardinal v.Scvad_activity.Verdict.inactive) ))
        a.Scvad_activity.Verdict.vars)
    verdicts

let guard_rows certs =
  List.concat_map
    (fun (a : Scvad_guard.Cert.app_certs) ->
      List.map
        (fun (c : Scvad_guard.Cert.var_cert) ->
          ( Printf.sprintf "guard.%s.%s" a.Scvad_guard.Cert.app c.Scvad_guard.Cert.var,
            Scvad_guard.Cert.class_name c.Scvad_guard.Cert.class_ ))
        a.Scvad_guard.Cert.certs)
    certs

let discover_rows proposals =
  List.concat_map
    (fun (a : Scvad_discover.Rank.app_ranks) ->
      List.map
        (fun (f : Scvad_discover.Rank.field_rank) ->
          ( Printf.sprintf "discover.%s.%s" a.Scvad_discover.Rank.r_app
              f.Scvad_discover.Rank.f_field,
            Scvad_discover.Rank.verdict_name f.Scvad_discover.Rank.f_verdict ))
        a.Scvad_discover.Rank.r_fields)
    proposals

let cost_rows costs =
  List.map
    (fun (c : Scvad_cost.Driver.app_cost) ->
      ( "cost." ^ c.Scvad_cost.Driver.c_app,
        string_of_int c.Scvad_cost.Driver.c_p.Scvad_cost.Predict.p_total ))
    costs


let compared refs rows = List.map Refs.describe (Refs.compare refs rows)

let static_pass ~refs () =
  op "activity" (fun () ->
      let verdicts, _ =
        span "activity_static.analyze_dir" (fun () ->
            Scvad_activity.Driver.analyze_dir npb_dir)
      in
      compared refs (activity_rows verdicts));
  op "guard" (fun () ->
      let certs, _ =
        span "guard.analyze_dir" (fun () -> Scvad_guard.Driver.analyze_dir npb_dir)
      in
      compared refs (guard_rows certs));
  op "discover" (fun () ->
      let proposals, _ =
        span "discover.analyze_dir" (fun () ->
            Scvad_discover.Driver.analyze_dir npb_dir)
      in
      compared refs (discover_rows proposals));
  op "cost" (fun () ->
      let costs =
        span "cost_static.analyze" (fun () ->
            Scvad_cost.Driver.analyze (Scvad_cost.World.load ~npb_dir ()))
      in
      compared refs (cost_rows costs));
  (* the race-freedom report names source lines, which any edit moves:
     its reference is the certification gate itself *)
  op "racefree" (fun () ->
      let report =
        span "racefree.certify" (fun () -> Scvad_racefree.Driver.certify ~root:"lib")
      in
      (if report.Scvad_racefree.Driver.r_sites = [] then
         [ "no fan-out site found" ]
       else [])
      @ List.map
          (fun (c : Scvad_racefree.Verdict.classified) ->
            "not certified: "
            ^ Scvad_racefree.Verdict.site_to_text c.Scvad_racefree.Verdict.c_site)
          (Scvad_racefree.Driver.gate_violations report))

(* ------------------------------------------------------------------ *)
(* Negative self-tests                                                 *)
(* ------------------------------------------------------------------ *)

exception Self_test of string

let self_fail fmt = Printf.ksprintf (fun m -> raise (Self_test m)) fmt

(* The checks must catch what they exist to catch: a one-bit mask flip
   fails the reference comparison, and a critical element poisoned on
   restart breaks the bitwise output check. *)
let runtime_self_test ~refs =
  let (module A : Scvad_core.App.S) = find_app "lu" in
  let report = Analyzer.run ~config:dense_config (module A) in
  if Refs.compare refs (report_refs ~dense:true report) <> [] then
    self_fail "lu's dense report does not match its references";
  let victim =
    match
      List.find_opt
        (fun (v : Crit.var_report) ->
          v.Crit.kind = Crit.Float_var && Crit.critical v > 0)
        report.Crit.vars
    with
    | Some v -> v
    | None -> self_fail "lu has no critical float element"
  in
  let element =
    let rec first i = if victim.Crit.mask.(i) then i else first (i + 1) in
    first 0
  in
  let flipped = Array.copy victim.Crit.mask in
  flipped.(element) <- false;
  let poisoned_var =
    Crit.of_mask ~name:victim.Crit.name ~shape:victim.Crit.shape
      ~spe:victim.Crit.spe ~kind:victim.Crit.kind flipped
  in
  let poisoned =
    {
      report with
      Crit.vars =
        List.map
          (fun (v : Crit.var_report) ->
            if v.Crit.name = victim.Crit.name then poisoned_var else v)
          report.Crit.vars;
    }
  in
  (match Refs.compare refs (report_refs ~dense:true poisoned) with
  | [ Refs.Differs _; Refs.Differs _ ] -> ()
  | m ->
      self_fail "a one-bit mask flip gave %d mismatches, not the mask and regions digests"
        (List.length m));
  let niter = List.assoc A.name ckpt_niter in
  let module I = A.Make (Scvad_ad.Float_scalar) in
  let restarted report =
    let st = I.create () in
    I.run st ~from:0 ~until:1;
    let file =
      Pruned.snapshot ~report ~app:A.name ~iteration:1
        ~float_vars:(I.float_vars st) ~int_vars:(I.int_vars st) ()
    in
    let fresh = I.create () in
    let from =
      Pruned.restore ~poison:Failure.Nan file ~float_vars:(I.float_vars fresh)
        ~int_vars:(I.int_vars fresh)
    in
    I.run fresh ~from ~until:niter;
    Refs.hex_float (I.output fresh)
  in
  let golden = Refs.find refs (golden_key A.name niter) in
  if Some (restarted report) <> golden then
    self_fail "a correctly pruned restart of lu misses its golden output";
  if Some (restarted poisoned) = golden then
    self_fail "poisoning critical element %d of lu.%s went unnoticed" element
      victim.Crit.name

(* The static comparison must catch a changed table entry: ep's
   activity, guard, discovery and cost rows are checked as committed,
   then each with one entry altered. *)
let static_self_test ~refs =
  let ep = [ Filename.concat npb_dir "ep.ml" ] in
  let tables =
    [
      ("activity", activity_rows (fst (Scvad_activity.Driver.analyze_files ep)));
      ("guard", guard_rows (fst (Scvad_guard.Driver.analyze_files ep)));
      ("discover", discover_rows (fst (Scvad_discover.Driver.analyze_files ep)));
      ( "cost",
        cost_rows
          (Scvad_cost.Driver.analyze ~apps:[ "ep" ]
             (Scvad_cost.World.load ~npb_dir ())) );
    ]
  in
  List.iter
    (fun (table, rows) ->
      if rows = [] || Refs.compare refs rows <> [] then
        self_fail "ep's %s table does not match its references" table;
      let altered =
        List.mapi (fun i (k, v) -> if i = 0 then (k, v ^ "!") else (k, v)) rows
      in
      if List.length (Refs.compare refs altered) <> 1 then
        self_fail "an altered %s entry went unnoticed" table)
    tables

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  w_name : string;
  w_jobs : int;  (** domains the workload may use; never the pool default *)
  w_min_passes : int;
      (** passes per measured phase at least, so that the median of
          short passes drops the first, slower one *)
  w_setup : refs:Refs.t -> seed:int -> jobs:int -> (unit -> unit);
      (** set up, then return one measured pass *)
}

let budget_apps = [ "ft"; "cg"; "mg"; "bt"; "lu" ]

let workloads =
  [
    {
      w_name = "scrutinize";
      w_min_passes = 3;
      w_jobs = 1;
      w_setup =
        (fun ~refs ~seed:_ ~jobs ->
          runtime_self_test ~refs;
          let config = Config.(default |> with_jobs jobs) in
          fun () -> List.iter (analyze ~refs ~config ~dense:true) Suite.all);
    };
    {
      w_name = "budgeted";
      w_min_passes = 3;
      (* At jobs=2 on a 2-core machine the pass time spread 13.9% over ten
         seeds (quartiles over median), against 1.3% for scrutinize in the
         same hour: too noisy for the bound. *)
      w_jobs = 1;
      w_setup =
        (fun ~refs ~seed:_ ~jobs ->
          runtime_self_test ~refs;
          let runs =
            List.map
              (fun name ->
                let nodes =
                  match Refs.find refs ("tape_nodes." ^ name) with
                  | Some n -> int_of_string n
                  | None -> failwith ("no committed tape node count for " ^ name)
                in
                let config =
                  Config.(
                    default |> with_jobs jobs
                    |> with_memory_budget (max 1 (nodes / 4))
                    |> with_schedule Scvad_ad.Tape.Segmented.Binomial)
                in
                (config, find_app name))
              budget_apps
          in
          fun () ->
            List.iter
              (fun (config, app) -> analyze ~refs ~config ~dense:false app)
              runs);
    };
    {
      w_name = "checkpoint";
      (* a pass takes 5-13 s; three would overrun the run-time budget on
         a slow host *)
      w_min_passes = 2;
      w_jobs = 1;
      w_setup =
        (fun ~refs ~seed ~jobs ->
          runtime_self_test ~refs;
          let config = Config.(default |> with_jobs jobs) in
          let plans =
            List.map
              (fun (module A : Scvad_core.App.S) ->
                let report = Analyzer.run ~config (module A) in
                op ("dense report " ^ A.name) (fun () ->
                    compared refs (report_refs ~dense:true report));
                plan_of ~seed report (module A))
              Suite.all
          in
          let work = Filename.concat work_dir "ckpt" in
          fun () -> List.iter (checkpoint_app ~refs ~work) plans);
    };
    {
      w_name = "static";
      w_min_passes = 1;
      w_jobs = 1;
      w_setup =
        (fun ~refs ~seed:_ ~jobs:_ ->
          if not (Sys.file_exists npb_dir && Sys.is_directory npb_dir) then
            failwith "no lib/npb here: run from the repository root";
          static_self_test ~refs;
          static_pass ~refs);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let cpu_times = ref []

(* One pass, timed with tracing on or off.  Returns its wall time and,
   when traced, its per-layer values. *)
let run_pass ~traced pass =
  Hashtbl.reset counters;
  let first_span = !Trace.next_id in
  Trace.enabled := traced;
  Gc.compact ();
  let majors = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () and c0 = Sys.time () in
  span "bench.pass" pass;
  let wall = now () -. t0 in
  cpu_times := (Sys.time () -. c0) :: !cpu_times;
  Trace.enabled := false;
  add "gc.major_collections"
    (float_of_int ((Gc.quick_stat ()).Gc.major_collections - majors));
  let values =
    if traced then
      Some
        (layer_values ~pass_s:wall
           (List.filter (fun s -> s.Trace.id >= first_span) (Trace.spans ())))
    else None
  in
  (wall, values)

(* Passes until [seconds] have elapsed and at least [min] passes ran. *)
let passes ~traced ~seconds ~min pass =
  let t0 = now () in
  let rec go acc =
    if List.length acc >= min && now () -. t0 >= seconds then List.rev acc
    else go (run_pass ~traced pass :: acc)
  in
  go []

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (String.starts_with ~prefix:"VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let env_line w ~seed ~seconds ~trace ~setups ~passes ~traced_passes =
  let times l = String.concat ", " (List.map (Printf.sprintf "%.4f") l) in
  Printf.sprintf
    "{\"env\": {\"workload\": \"%s\", \"seed\": %d, \"seconds\": %g, \"trace\": %d, \"jobs\": %d, \"hardware_threads\": %d, \"recommended_domains\": %d, \"ocaml_version\": \"%s\", \"setup_s\": [%s], \"pass_s\": [%s], \"traced_pass_s\": [%s], \"cpu_s\": [%s]}}"
    w.w_name seed seconds trace w.w_jobs
    (Scvad_par.Pool.hardware_threads ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (times setups) (times passes) (times traced_passes)
    (times (List.rev !cpu_times))

(* One traced pass's per-layer values as metrics, in catalogue order. *)
let layer_metrics table =
  List.map
    (fun (name, unit_) ->
      { Stats.name; unit_; value = Option.value (Hashtbl.find_opt table name) ~default:0. })
    per_layer

let run_workload w ~seed ~seconds ~trace ~inject =
  let refs = Refs.load (Filename.concat refs_dir "references.txt") in
  if inject then begin
    (* one wrong reference: the run must report a failed operation *)
    let prefix =
      match w.w_name with
      | "checkpoint" -> "golden."
      | "static" -> "cost."
      | _ -> "mask."
    in
    let key =
      Hashtbl.fold
        (fun k _ acc ->
          if String.starts_with ~prefix k && (acc = "" || k < acc) then k
          else acc)
        refs ""
    in
    Hashtbl.replace refs key "injected-mismatch"
  end;
  mkdir_p work_dir;
  let setups =
    List.init 3 (fun _ ->
        let t0 = now () in
        let pass = w.w_setup ~refs ~seed ~jobs:w.w_jobs in
        (now () -. t0, pass))
  in
  let setup_s = Stats.median (List.map fst setups) in
  let pass = snd (List.nth setups 2) in
  let traced = trace = 1 in
  let measure = if traced then seconds /. 2. else seconds in
  let untraced = passes ~traced:false ~seconds:measure ~min:w.w_min_passes pass in
  let tracedp = if traced then passes ~traced:true ~seconds:measure ~min:w.w_min_passes pass else [] in
  let total_s = Stats.median (List.map fst untraced) in
  let metrics =
    if not traced then
      [
        { Stats.name = "setup_s"; unit_ = "s"; value = setup_s };
        { Stats.name = "total_s"; unit_ = "s"; value = total_s };
        { Stats.name = "peak_rss_mb"; unit_ = "MB"; value = peak_rss_mb () };
      ]
    else begin
      let tables = List.filter_map snd tracedp in
      let traced_total = Stats.median (List.map fst tracedp) in
      List.map
        (fun (m : Stats.metric) ->
          match m.Stats.name with
          | "trace.untraced_total_s" -> { m with Stats.value = total_s }
          | "trace.overhead_s" -> { m with Stats.value = traced_total -. total_s }
          | _ -> m)
        (Stats.median_metrics (List.map layer_metrics tables))
    end
  in
  if traced then begin
    let path = Filename.concat work_dir (Printf.sprintf "trace-%s-%d.json" w.w_name seed) in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (Trace.to_chrome_json (Trace.spans ())))
  end;
  print_endline
    (env_line w ~seed ~seconds ~trace ~setups:(List.map fst setups)
       ~passes:(List.map fst untraced) ~traced_passes:(List.map fst tracedp));
  print_endline
    (Stats.result_line ~correct:(!failed = 0) ~attempted:!attempted
       ~failed:!failed metrics)

(* ------------------------------------------------------------------ *)
(* References                                                          *)
(* ------------------------------------------------------------------ *)

let write_refs dir =
  let section title rows = ("# " ^ title ^ "\n") ^ Refs.render rows in
  let reports =
    List.concat_map
      (fun app -> report_refs ~dense:true (Analyzer.run ~config:dense_config app))
      Suite.all
  in
  let goldens =
    List.map
      (fun (name, niter) ->
        let r = Harness.golden_run ~niter (find_app name) in
        (golden_key name niter, Refs.hex_float r.Harness.output))
      ckpt_niter
  in
  let verdicts, _ = Scvad_activity.Driver.analyze_dir npb_dir in
  let certs, _ = Scvad_guard.Driver.analyze_dir npb_dir in
  let proposals, _ = Scvad_discover.Driver.analyze_dir npb_dir in
  let costs = Scvad_cost.Driver.analyze (Scvad_cost.World.load ~npb_dir ()) in
  let text =
    String.concat "\n"
      [
        "# Correctness references of the benchmark, written by\n\
         # `main.exe --write-refs perfbench/refs` from the repository root.";
        section
          "Dense reverse scrutiny at boundary 0, jobs=1: tape nodes, and MD5 \
           digests of each variable's mask ('0'/'1' per element) and regions \
           (Regions.to_string)."
          reports;
        section "Golden outputs (hex floats) of the checkpoint workload's runs: golden.<app>.<niter>."
          goldens;
        section "Static activity verdicts: class/inactive element count." (activity_rows verdicts);
        section "Static guard certificates." (guard_rows certs);
        section "Static discovery proposals." (discover_rows proposals);
        section "Static class-S cost model: predicted tape nodes." (cost_rows costs);
      ]
  in
  mkdir_p dir;
  Out_channel.with_open_bin (Filename.concat dir "references.txt") (fun oc ->
      Out_channel.output_string oc text)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let inject = ref false and write = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--inject-mismatch", Arg.Set inject, " corrupt one reference (negative test)");
      ("--write-refs", Arg.Set_string write, "DIR regenerate the references");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !write <> "" then write_refs !write
  else
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
    | Some w -> (
        try
          run_workload w ~seed:!seed ~seconds:!seconds
            ~trace:!trace ~inject:!inject
        with Self_test msg ->
          prerr_endline ("perfbench: self-test failed: " ^ msg);
          exit 3)
