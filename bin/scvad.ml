(* scvad — command-line interface.

   Subcommands:
     list        benchmarks and their checkpoint variables
     run         execute a benchmark (golden run)
     analyze     scrutinize checkpoint variables (the paper's analysis)
     visualize   render a variable's criticality distribution
     checkpoint  run with periodic (optionally pruned) checkpoints
     restart     restore the latest checkpoint and finish the run
     impact      per-element derivative magnitudes, mixed precision
     report      regenerate every table and figure
     check       run a static pass, optionally gated (activity, guard,
                 discover, cost, race)                                 *)

open Cmdliner
module Crit = Scvad_core.Criticality
module Finding = Scvad_lint.Finding

let find_app name =
  match Scvad_npb.Suite.find name with
  | Some a -> Ok a
  | None ->
      Error
        (Printf.sprintf "unknown benchmark %S (try: %s)" name
           (String.concat ", " Scvad_npb.Suite.names))

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let app_arg =
  let doc = "Benchmark name (bt, sp, mg, cg, lu, ft, ep, is)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let niter_arg =
  let doc = "Override the number of main-loop iterations." in
  Arg.(value & opt (some int) None & info [ "niter"; "n" ] ~docv:"N" ~doc)

let mode_arg =
  let modes =
    [ ("reverse", Crit.Reverse_gradient);
      ("forward", Crit.Forward_probe);
      ("activity", Crit.Activity_dependence) ]
  in
  let doc =
    "Analysis mode: $(b,reverse) (one taped run + one backward sweep),
     $(b,forward) (one dual-number run per element), or $(b,activity)
     (dependence only)."
  in
  Arg.(value & opt (enum modes) Crit.Reverse_gradient & info [ "mode" ] ~doc)

let at_iter_arg =
  let doc = "Checkpoint boundary the analysis models." in
  Arg.(value & opt int 0 & info [ "at-iter" ] ~docv:"T" ~doc)

(* --jobs rejects 0 and negatives at parse time: a pool of width 0 has
   no meaning, and catching it in argv gives a usage error instead of a
   late Invalid_argument out of Pool.create. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "must be >= 1 (got %d)" n))
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected a positive integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_arg =
  let doc =
    "Domains the analysis fans out on (default: the recommended domain
     count clamped to the container's CPU quota). $(docv) = 1 runs fully
     sequentially; the produced reports are identical for every $(docv)."
  in
  Arg.(
    value
    & opt positive_int (Scvad_par.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* --memory-budget accepts a node count with an optional k/M/G suffix
   (1e3/1e6/1e9); the budget caps materialized tape storage at 24 bytes
   per node slot, so e.g. 6M nodes is ~144 MiB of tape. *)
let budget_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
          (Printf.sprintf
             "invalid node count %S (expected e.g. 500000, 500k, 6M)" s))
    in
    let n = String.length s in
    if n = 0 then fail ()
    else
      let mult, digits =
        match s.[n - 1] with
        | 'k' | 'K' -> (1_000., String.sub s 0 (n - 1))
        | 'm' | 'M' -> (1_000_000., String.sub s 0 (n - 1))
        | 'g' | 'G' -> (1_000_000_000., String.sub s 0 (n - 1))
        | _ -> (1., s)
      in
      match float_of_string_opt digits with
      | Some v when v *. mult >= 1. -> Ok (int_of_float (v *. mult))
      | Some _ | None -> fail ()
  in
  Arg.conv ~docv:"NODES" (parse, Format.pp_print_int)

let memory_budget_arg =
  let doc =
    "Cap materialized reverse-tape storage at $(docv) node slots (24
     bytes each; k/M/G suffixes accepted). Discarded tape windows are
     rebuilt by replaying iterations during the backward sweep; masks
     are bitwise identical to the unbudgeted analysis. Reverse mode
     only."
  in
  Arg.(
    value
    & opt (some budget_conv) None
    & info [ "memory-budget" ] ~docv:"NODES" ~doc)

(* The schedule is parsed as a string because [Planned] carries a
   payload no flag can spell: its boundaries come out of the static
   cost model at run time. *)
let schedule_arg =
  let doc =
    "Recompute-vs-store schedule under --memory-budget: $(b,binomial)
     (optimal re-snapshotting during replay) or $(b,planned) (snapshot
     boundaries computed offline by the static cost model before any
     recording)."
  in
  Arg.(
    value
    & opt (enum
             [ ("binomial", `Binomial); ("planned", `Planned) ])
        `Binomial
    & info [ "tape-schedule" ] ~doc)

let dir_arg =
  let doc = "Checkpoint directory." in
  Arg.(value & opt string "_checkpoints" & info [ "dir"; "d" ] ~docv:"DIR" ~doc)

let out_arg =
  let doc = "Output directory for images and reports." in
  Arg.(value & opt string "_results" & info [ "out"; "o" ] ~docv:"DIR" ~doc)

let pruned_arg =
  let doc = "Prune checkpoints using a fresh criticality analysis." in
  Arg.(value & flag & info [ "pruned"; "p" ] ~doc)

let poison_arg =
  let poisons =
    [ ("nan", Scvad_checkpoint.Failure.Nan);
      ("zero", Scvad_checkpoint.Failure.Zero) ]
  in
  let doc = "Value placed in uncritical elements on restore." in
  Arg.(value & opt (enum poisons) Scvad_checkpoint.Failure.Nan
       & info [ "poison" ] ~doc)

let retain_arg =
  let doc =
    "Retention: keep only the $(docv) newest checkpoints (older ones are
     garbage-collected after each save)."
  in
  Arg.(value & opt (some int) None & info [ "retain"; "k" ] ~docv:"K" ~doc)

let retain_every_arg =
  let doc =
    "Additionally retain older checkpoints whose iteration is divisible
     by $(docv) (the sparse level of the retention ladder)."
  in
  Arg.(value & opt (some int) None & info [ "retain-every" ] ~docv:"M" ~doc)

let inject_arg =
  let doc =
    "Deterministic I/O fault injection seeded with $(docv): torn writes,
     truncations, single-bit flips (5% each) and transient retried
     failures (10%)."
  in
  Arg.(value & opt (some int) None & info [ "inject" ] ~docv:"SEED" ~doc)

let no_verify_arg =
  let doc =
    "Disable write verification (read-back + CRC check before the atomic
     rename); injected write faults then land on disk."
  in
  Arg.(value & flag & info [ "no-verify" ] ~doc)

let print_fault_events store_faults =
  match store_faults with
  | None -> ()
  | Some plan ->
      let events = Scvad_checkpoint.Io_fault.events plan in
      Printf.printf "injected faults: %d\n" (List.length events);
      List.iter
        (fun e ->
          Printf.printf "  op %3d %-10s %s (%s)\n" e.Scvad_checkpoint.Io_fault.op
            (Scvad_checkpoint.Io_fault.kind_name e.Scvad_checkpoint.Io_fault.kind)
            (Filename.basename e.Scvad_checkpoint.Io_fault.path)
            e.Scvad_checkpoint.Io_fault.detail)
        events

let handle = function
  | Ok () -> 0
  | Error msg ->
      Printf.eprintf "scvad: %s\n" msg;
      1

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (module A : Scvad_core.App.S) ->
        Printf.printf "%-4s %s\n" A.name A.description;
        List.iter
          (fun d -> Printf.printf "       %s\n" d)
          (Scvad_core.Report.declarations (module A)))
      Scvad_npb.Suite.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and checkpoint variables")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let run name niter =
    handle
      (Result.map
         (fun (module A : Scvad_core.App.S) ->
           let t0 = Unix.gettimeofday () in
           let g = Scvad_core.Harness.golden_run ?niter (module A) in
           Printf.printf "%s: output %.15g after %d iterations (%.2fs)\n"
             A.name g.Scvad_core.Harness.output g.Scvad_core.Harness.iterations
             (Unix.gettimeofday () -. t0))
         (find_app name))
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a benchmark (golden run)")
    Term.(const run $ app_arg $ niter_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let print_report (r : Crit.report) =
  Printf.printf
    "benchmark %s: mode %s, boundary t=%d, window until %d, %d tape nodes\n"
    r.Crit.app (Crit.mode_name r.Crit.mode) r.Crit.at_iteration
    r.Crit.analyzed_until r.Crit.tape_nodes;
  (match r.Crit.tape_profile with
  | None -> ()
  | Some p ->
      Printf.printf
        "  tape: %s schedule, budget %d nodes, %d segments, %d snapshots, \
         %d replays (%d nodes re-pushed), peak live %d nodes\n"
        p.Crit.t_schedule p.Crit.t_budget_nodes p.Crit.t_segments
        p.Crit.t_snapshots p.Crit.t_replays p.Crit.t_replayed_nodes
        p.Crit.t_peak_live_nodes);
  (match r.Crit.sweep_profile with
  | None -> ()
  | Some w ->
      Printf.printf
        "  sweep: visited %d of %d nodes (active fraction %.3f)\n"
        w.Crit.w_visited_nodes w.Crit.w_swept_nodes w.Crit.w_active_fraction);
  List.iter
    (fun v ->
      Printf.printf "  %-20s %8d critical %8d uncritical (%5.1f%%)  regions=%d\n"
        v.Crit.name (Crit.critical v) (Crit.uncritical v)
        (100. *. Crit.uncritical_rate v)
        (Scvad_checkpoint.Regions.count_regions v.Crit.regions))
    r.Crit.vars

(* Static cost model hook: run the benchmark on a counting tape and
   predict its tape node counts for the requested analysis window.  A
   window the analyzer would reject is an error, not a plan. *)
let predict_cost app ~at_iter ~niter =
  match Scvad_cost.Predict.predict ~at_iter ?niter app with
  | p -> Ok p
  | exception Invalid_argument msg -> Error msg

let plan_arg =
  let doc =
    "Dry run: print the static cost model's predicted tape nodes and —
     under --memory-budget — the planned snapshot schedule, predicted
     peak live storage and predicted replay traffic, without executing
     any analysis."
  in
  Arg.(value & flag & info [ "plan" ] ~doc)

let auto_capacity_arg =
  let doc =
    "Size the dense reverse tape from the static cost model's exact
     prediction instead of the benchmark's hand-maintained
     tape_nodes_hint (reverse mode without --memory-budget)."
  in
  Arg.(value & flag & info [ "auto-capacity" ] ~doc)

let print_plan name (p : Scvad_cost.Predict.t) plan =
  Printf.printf
    "benchmark %s: static cost plan (boundary t=%d, window until %d)\n" name
    p.Scvad_cost.Predict.p_at_iter p.Scvad_cost.Predict.p_analysis_niter;
  Printf.printf "  predicted tape: %d nodes (%.1f MB), lift %d, output %d\n"
    p.Scvad_cost.Predict.p_total
    (float_of_int p.Scvad_cost.Predict.p_total *. 24. /. 1e6)
    p.Scvad_cost.Predict.p_lift p.Scvad_cost.Predict.p_output;
  let segs = p.Scvad_cost.Predict.p_segments in
  if Array.length segs > 0 then begin
    let mn = Array.fold_left min segs.(0) segs in
    let mx = Array.fold_left max segs.(0) segs in
    Printf.printf "  segments: %d (min %d, max %d nodes)\n" (Array.length segs)
      mn mx
  end;
  match plan with
  | None ->
      Printf.printf
        "  dense tape: capacity_hint %d would be derived (committed hint %d)\n"
        p.Scvad_cost.Predict.p_total p.Scvad_cost.Predict.p_hint
  | Some (budget, pl) ->
      Printf.printf
        "  budget %d nodes -> %d slabs of %d; snapshots at [%s]\n" budget
        pl.Scvad_cost.Plan.budget_slabs pl.Scvad_cost.Plan.slab_nodes
        (String.concat "; "
           (List.map string_of_int pl.Scvad_cost.Plan.boundaries));
      Printf.printf
        "  predicted peak live %d nodes, %d replays (%d nodes re-pushed, \
         dense-sweep upper bound)\n"
        pl.Scvad_cost.Plan.peak_live_nodes pl.Scvad_cost.Plan.replays
        pl.Scvad_cost.Plan.replayed_nodes

let analyze_cmd =
  let run name mode at_iter niter jobs memory_budget schedule dry_run
      auto_capacity =
    let ( >>= ) = Result.bind in
    handle
      ( find_app name >>= fun (module A : Scvad_core.App.S) ->
        (match
           Scvad_core.Analyzer.check_window "analyze" ~at_iter
             ~niter:(Option.value niter ~default:A.analysis_niter)
         with
        | () -> Ok ()
        | exception Invalid_argument msg -> Error msg)
        >>= fun () ->
        (* The planned schedule and the dry run both consult the static
           cost model; the binomial schedule never does. *)
        let wants_cost =
          dry_run || auto_capacity
          || (schedule = `Planned && memory_budget <> None)
        in
        (match schedule with
        | `Planned when memory_budget = None ->
            Error "--tape-schedule planned requires --memory-budget"
        | _ -> Ok ())
        >>= fun () ->
        (if wants_cost then
           Result.map Option.some (predict_cost (module A) ~at_iter ~niter)
         else Ok None)
        >>= fun prediction ->
        let planned =
          match (prediction, memory_budget) with
          | Some p, Some budget when dry_run || schedule = `Planned ->
              Some (budget, Scvad_cost.Plan.of_prediction p ~budget_nodes:budget)
          | _ -> None
        in
        if dry_run then begin
          let p = Option.get prediction in
          print_plan A.name p planned;
          Ok ()
        end
        else
          let schedule =
            match schedule with
            | `Binomial -> Scvad_ad.Tape.Segmented.Binomial
            | `Planned ->
                let _, pl = Option.get planned in
                Scvad_ad.Tape.Segmented.Planned pl.Scvad_cost.Plan.boundaries
          in
          let capacity_hint =
            if auto_capacity && memory_budget = None then
              Option.map (fun p -> p.Scvad_cost.Predict.p_total) prediction
            else None
          in
          let config =
            {
              Scvad_core.Analyzer.Config.default with
              Scvad_core.Analyzer.Config.mode;
              at_iter;
              niter;
              jobs = Some jobs;
              memory_budget;
              schedule;
              capacity_hint;
            }
          in
          let r = Scvad_core.Analyzer.run ~config (module A) in
          Ok (print_report r) )
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Scrutinize every element of the checkpoint variables with AD")
    Term.(
      const run $ app_arg $ mode_arg $ at_iter_arg $ niter_arg $ jobs_arg
      $ memory_budget_arg $ schedule_arg $ plan_arg $ auto_capacity_arg)

(* ------------------------------------------------------------------ *)
(* visualize                                                           *)
(* ------------------------------------------------------------------ *)

let var_arg =
  let doc = "Variable to render (default: every float variable)." in
  Arg.(value & opt (some string) None & info [ "var"; "v" ] ~docv:"NAME" ~doc)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let visualize_one ~out (v : Crit.var_report) =
  let dims = Scvad_nd.Shape.dims v.Crit.shape in
  Printf.printf "%s %s: %d uncritical of %d\n" v.Crit.name
    (Scvad_nd.Shape.to_string v.Crit.shape)
    (Crit.uncritical v) (Crit.total v);
  (match Array.length dims with
  | 4 ->
      let cube = Scvad_viz.Cube.component ~dims4:dims v.Crit.mask ~m:0 in
      print_string (Scvad_viz.Cube.to_ascii cube);
      Scvad_viz.Ppm.write
        (Filename.concat out (v.Crit.name ^ "_cube.ppm"))
        (Scvad_viz.Cube.to_ppm cube)
  | 3 ->
      let cube = Scvad_viz.Cube.of_mask ~dims v.Crit.mask in
      Printf.printf "fully uncritical planes: %s\n"
        (String.concat ", " (Scvad_viz.Cube.uncritical_planes cube));
      Scvad_viz.Ppm.write
        (Filename.concat out (v.Crit.name ^ "_cube.ppm"))
        (Scvad_viz.Cube.to_ppm cube)
  | _ ->
      let strip = Scvad_viz.Strip.of_report v in
      print_string (Scvad_viz.Strip.to_ascii strip));
  print_newline ()

let visualize_cmd =
  let run name var out jobs =
    handle
      (Result.map
         (fun (module A : Scvad_core.App.S) ->
           mkdir_p out;
           let r =
             Scvad_core.Analyzer.run
               ~config:Scvad_core.Analyzer.Config.(default |> with_jobs jobs)
               (module A)
           in
           let selected =
             match var with
             | None -> r.Crit.vars
             | Some v -> [ Crit.find r v ]
           in
           List.iter (visualize_one ~out) selected)
         (find_app name))
  in
  Cmd.v
    (Cmd.info "visualize"
       ~doc:"Render the critical/uncritical distribution of a variable")
    Term.(const run $ app_arg $ var_arg $ out_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* checkpoint / restart                                                *)
(* ------------------------------------------------------------------ *)

let every_arg =
  let doc = "Checkpoint every N iterations." in
  Arg.(value & opt int 2 & info [ "every"; "e" ] ~docv:"N" ~doc)

let crash_arg =
  let doc = "Inject a crash at this iteration." in
  Arg.(value & opt (some int) None & info [ "crash-at" ] ~docv:"N" ~doc)

let checkpoint_cmd =
  let run name dir every pruned crash_at niter retain retain_every inject
      no_verify =
    handle
      (Result.map
         (fun (module A : Scvad_core.App.S) ->
           let faults =
             Option.map
               (fun seed ->
                 Scvad_checkpoint.Io_fault.plan ~torn_write_rate:0.05
                   ~truncation_rate:0.05 ~bit_flip_rate:0.05
                   ~transient_rate:0.1 ~seed ())
               inject
           in
           let store =
             Scvad_checkpoint.Store.create
               ~retention:
                 { Scvad_checkpoint.Store.keep_last = retain;
                   keep_every = retain_every }
               ~verify_writes:(not no_verify) ?faults dir
           in
           let report =
             if pruned then Some (Scvad_core.Analyzer.run (module A))
             else None
           in
           (match
              Scvad_core.Harness.run_with_checkpoints ?report ?crash_at ?niter
                ~store ~every (module A)
            with
           | g ->
               Printf.printf "%s finished: output %.15g (%d iterations)\n"
                 A.name g.Scvad_core.Harness.output
                 g.Scvad_core.Harness.iterations;
               List.iter
                 (fun it ->
                   Printf.printf "  checkpoint %d: %d bytes\n" it
                     (Scvad_checkpoint.Store.disk_bytes store it))
                 (Scvad_checkpoint.Store.list_iterations store)
           | exception Scvad_checkpoint.Failure.Crash { iteration } ->
               Printf.printf "%s crashed at iteration %d (as requested)\n"
                 A.name iteration;
               Printf.printf "checkpoints available: %s\n"
                 (String.concat ", "
                    (List.map string_of_int
                       (Scvad_checkpoint.Store.list_iterations store))));
           print_fault_events faults)
         (find_app name))
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Run with periodic (optionally pruned) checkpoints, retention and \
          fault injection")
    Term.(
      const run $ app_arg $ dir_arg $ every_arg $ pruned_arg $ crash_arg
      $ niter_arg $ retain_arg $ retain_every_arg $ inject_arg $ no_verify_arg)

let resilient_arg =
  let doc =
    "Walk backward over corrupt checkpoints to the newest valid one
     instead of trusting the newest file (cold restart if none survives)."
  in
  Arg.(value & flag & info [ "resilient" ] ~doc)

let restart_cmd =
  let run name dir poison niter resilient =
    handle
      (Result.map
         (fun (module A : Scvad_core.App.S) ->
           let store = Scvad_checkpoint.Store.create dir in
           let g =
             if resilient then begin
               let r =
                 Scvad_core.Harness.restart_resilient ~poison ?niter ~store
                   (module A)
               in
               List.iter
                 (fun (it, reason) ->
                   Printf.printf "skipped checkpoint %d: %s\n" it reason)
                 r.Scvad_core.Harness.skipped;
               Printf.printf
                 (if r.Scvad_core.Harness.restored_iteration = 0 then
                    "cold restart from iteration %d\n"
                  else "restored checkpoint at iteration %d\n")
                 r.Scvad_core.Harness.restored_iteration;
               r.Scvad_core.Harness.run
             end
             else
               Scvad_core.Harness.restart_from_latest ~poison ?niter ~store
                 (module A)
           in
           let golden = Scvad_core.Harness.golden_run ?niter (module A) in
           Printf.printf "%s restarted: output %.15g (golden %.15g) -> %s\n"
             A.name g.Scvad_core.Harness.output golden.Scvad_core.Harness.output
             (if Scvad_core.Harness.verified ~golden ~restarted:g then
                "VERIFICATION SUCCESSFUL"
              else "VERIFICATION FAILED"))
         (find_app name))
  in
  Cmd.v
    (Cmd.info "restart"
       ~doc:"Restore a checkpoint, finish the run, verify")
    Term.(
      const run $ app_arg $ dir_arg $ poison_arg $ niter_arg $ resilient_arg)

(* ------------------------------------------------------------------ *)
(* impact                                                              *)
(* ------------------------------------------------------------------ *)

let threshold_arg =
  let doc =
    "Impact threshold: elements with |d out / d element| below it are
     checkpointed in single precision."
  in
  Arg.(value & opt float 1e-6 & info [ "threshold"; "t" ] ~docv:"TAU" ~doc)

let impact_cmd =
  let run name at_iter niter threshold =
    handle
      (Result.map
         (fun (module A : Scvad_core.App.S) ->
           let imp =
             Scvad_core.Analyzer.analyze_impact ~at_iter ?niter (module A)
           in
           List.iter
             (fun (v : Scvad_core.Impact.var_impact) ->
               let classes = Scvad_core.Impact.classify v ~threshold in
               let u, l, h = Scvad_core.Impact.class_counts classes in
               Printf.printf
                 "%-6s min>0 %.3e  p50 %.3e  max %.3e | uncritical %d, \
                  f32-eligible %d, f64 %d\n"
                 v.Scvad_core.Impact.name
                 (Scvad_core.Impact.min_nonzero v)
                 (Scvad_core.Impact.percentile v ~p:50.)
                 (Scvad_core.Impact.max_magnitude v)
                 u l h;
               List.iter
                 (fun (decade, count) ->
                   Printf.printf "       1e%+03d: %d elements\n" decade count)
                 (Scvad_core.Impact.log_histogram v))
             imp.Scvad_core.Impact.vars;
           let e =
             Scvad_core.Mixed.experiment
               ~at_iter:(max 1 at_iter)
               ?niter ~threshold (module A)
           in
           Printf.printf
             "mixed checkpoint @ tau=%.1e: %d -> %d bytes; measured restart \
              error %.3e (first-order bound %.3e)\n"
             threshold e.Scvad_core.Mixed.full_bytes
             e.Scvad_core.Mixed.mixed_bytes e.Scvad_core.Mixed.abs_error
             e.Scvad_core.Mixed.predicted_error)
         (find_app name))
  in
  Cmd.v
    (Cmd.info "impact"
       ~doc:
         "Per-element derivative magnitudes and the mixed-precision \
          storage/accuracy tradeoff")
    Term.(const run $ app_arg $ at_iter_arg $ niter_arg $ threshold_arg)

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

(* The paper's six distribution figures: a headline on stdout, the full
   text and the images under [out]. *)
let write_figures ~out reports =
  let find app var =
    Crit.find (List.find (fun r -> r.Crit.app = app) reports) var
  in
  List.iter
    (fun (fig : Scvad_viz.Figures.output) ->
      Printf.printf "== %s\n" fig.Scvad_viz.Figures.title;
      (match String.index_opt fig.Scvad_viz.Figures.text '\n' with
      | Some i -> print_endline (String.sub fig.Scvad_viz.Figures.text 0 i)
      | None -> print_string fig.Scvad_viz.Figures.text);
      let txt_path =
        Filename.concat out
          (String.map
             (fun c -> if c = ' ' || c = '.' then '_' else c)
             fig.Scvad_viz.Figures.title
          ^ ".txt")
      in
      Out_channel.with_open_bin txt_path (fun oc ->
          output_string oc fig.Scvad_viz.Figures.text);
      List.iter
        (fun p -> Printf.printf "   wrote %s\n" p)
        (Scvad_viz.Figures.write_images ~dir:out fig);
      Printf.printf "   wrote %s\n" txt_path)
    Scvad_viz.Figures.
      [
        fig3 (find "bt" "u");
        fig4 (find "mg" "u");
        fig5 (find "mg" "r");
        fig6 (find "cg" "x");
        fig7 (find "lu" "u");
        fig8 (find "ft" "y");
      ]

let report_cmd =
  let run out jobs =
    mkdir_p out;
    let reports =
      List.combine Scvad_npb.Suite.all
        (Scvad_core.Analyzer.run_suite
           ~config:Scvad_core.Analyzer.Config.(default |> with_jobs jobs)
           Scvad_npb.Suite.all)
    in
    print_string (Scvad_core.Report.table1 Scvad_npb.Suite.all);
    print_newline ();
    print_string (Scvad_core.Report.table2 (List.map snd reports));
    print_newline ();
    let rows =
      List.map
        (fun ((module A : Scvad_core.App.S), r) ->
          Scvad_core.Report.table3_row (module A) r)
        reports
    in
    print_string (Scvad_core.Report.table3 rows);
    print_newline ();
    print_string
      (Scvad_core.Report.policy_table
         (List.filter
            (fun ((module A : Scvad_core.App.S), _) ->
              List.mem A.name [ "bt"; "sp"; "mg"; "cg"; "lu" ])
            reports));
    print_newline ();
    print_string (Scvad_core.Report.operational_table rows);
    print_newline ();
    write_figures ~out (List.map snd reports);
    Printf.printf "\nAll artifacts under %s/\n" out;
    0
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ out_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let format_arg =
  let doc = "Report format: $(b,text) or $(b,json)." in
  Arg.(
    value
    & opt (enum [ ("text", false); ("json", true) ]) false
    & info [ "format" ] ~docv:"FORMAT" ~doc)

let gate_arg =
  let doc =
    "Gate the static claims against the dynamic engine; any violation
     exits 1."
  in
  Arg.(value & flag & info [ "gate" ] ~doc)

let root_arg default =
  let doc =
    Printf.sprintf
      "Source directory to analyze (default: the repo's %s, found by \
       walking up to dune-project)."
      default
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"ROOT" ~doc)

let trials_arg =
  let doc = "Total perturbation trials of the guard gate." in
  Arg.(value & opt positive_int 10_000 & info [ "trials" ] ~docv:"N" ~doc)

let baseline_arg =
  let doc = "Fail if a Smooth certificate in $(docv) regressed." in
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

(* The one output/exit step of every pass: print the report, run the
   requested checks, exit 0 when clean, 1 on an error finding or a
   violation, 2 when ROOT is missing or not a directory.  Gates write
   to stderr only, so stdout is the report alone, in either format. *)
let check_pass ~prefix ~default_root pass json gate root =
  let usage fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: %s\n" prefix msg;
        2)
      fmt
  in
  match
    match root with
    | Some _ -> root
    | None -> Scvad_lint.Source.locate default_root
  with
  | None -> usage "no ROOT given and no %s found above cwd" default_root
  | Some d when not (Sys.file_exists d && Sys.is_directory d) ->
      usage "ROOT %s is not a directory" d
  | Some d ->
      let report, findings, verify = pass ~json ~gate d in
      print_string report;
      let ok = verify () in
      let errors =
        List.exists
          (fun (f : Finding.t) -> f.Finding.severity = Finding.Error)
          findings
      in
      if errors || not ok then 1 else 0

let check_cmd =
  let pass name ?(prefix = name) ?(default_root = "lib/npb") ~doc term =
    Cmd.v (Cmd.info name ~doc)
      Term.(
        const (check_pass ~prefix ~default_root)
        $ term $ format_arg $ gate_arg $ root_arg default_root)
  in
  Cmd.group
    (Cmd.info "check"
       ~doc:
         "Run a static pass over the sources, optionally gated against the \
          dynamic engine")
    [
      pass "activity" ~doc:"Static activity verdicts (gate: soundness)"
        Term.(const Activity.check);
      pass "guard"
        ~doc:"Non-differentiable dataflow certificates (gate: falsifier)"
        Term.(
          const (fun trials baseline -> Guard.check ~trials ?baseline)
          $ trials_arg $ baseline_arg);
      pass "discover"
        ~doc:"Static checkpoint-set discovery (gate: containment)"
        Term.(const Discover.check);
      pass "cost" ~doc:"Static tape-size predictions (gate: exactness)"
        Term.(const Cost.check);
      pass "race" ~prefix:"racecheck" ~default_root:"lib"
        ~doc:"Data-race freedom certificates (gate: sanitizer at jobs=4)"
        Term.(const Racecheck.check);
    ]

let () =
  let doc = "scrutinize checkpoint variables with automatic differentiation" in
  let info = Cmd.info "scvad" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; run_cmd; analyze_cmd; visualize_cmd; checkpoint_cmd;
            restart_cmd; impact_cmd; report_cmd; check_cmd ]))
