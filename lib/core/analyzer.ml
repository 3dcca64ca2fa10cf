(* The scrutiny engine (paper §III-A).

   Checkpoint semantics drive the setup: a checkpoint taken at main-loop
   iteration [at_iter] only matters through what a restarted run computes
   afterwards.  So the analysis runs the kernel to [at_iter] (free: all
   values are AD constants), lifts every element of every checkpoint
   variable into an independent AD variable — the checkpointed state —
   runs the remaining iterations plus the output reduction, and asks for
   d output / d element.  Zero derivative ⇒ uncritical.

   Three interchangeable modes:
   - [Reverse_gradient]: one taped run + one backward sweep for all
     elements at once (what Enzyme does for the authors);
   - [Forward_probe]: one dual-number run per element — the naive
     reading of "inspect every single element", kept as an oracle and an
     ablation;
   - [Activity_dependence]: the reverse-mode recording swept for
     dependence reachability instead of adjoints, ignoring zero-valued
     partials.

   Parallelism: every analysis accepts an optional {!Scvad_par.Pool} and
   fans its independent parts across it — per-variable mask/region
   extraction (reverse, activity), per-element dual probes (forward),
   and {!run_suite} runs whole per-benchmark analyses side by side.
   Each analysis owns its tape and each forward probe its state, so
   nothing is shared and results are bitwise identical at any [jobs]. *)

open Scvad_ad
module Pool = Scvad_par.Pool

(* Fan [f] over [xs]: on the pool when one is given, sequentially
   otherwise.  Pool.map preserves input order, so both paths agree. *)
let fan pool f xs =
  match pool with None -> List.map f xs | Some p -> Pool.map p f xs

let fan_init pool n f =
  match pool with None -> Array.init n f | Some p -> Pool.init p n f

(* The same pool, as the pool-agnostic fan-out capability the tape
   accepts: with it, the backward sweep runs independent tape slabs in
   parallel (bitwise identical to the sequential sweep at any [jobs] —
   see {!Scvad_ad.Tape.backward}). *)
let fan_of pool =
  Option.map
    (fun p -> { Tape_intf.fan_run = (fun f xs -> Pool.map p f xs) })
    pool

(* Lower tape sweep stats into the report's sweep profile. *)
let sweep_profile_of (last : Tape_intf.sweep_stats option) =
  Option.map
    (fun (s : Tape_intf.sweep_stats) ->
      {
        Criticality.w_visited_nodes = s.Tape_intf.visited_nodes;
        w_swept_nodes = s.Tape_intf.swept_nodes;
        w_active_fraction =
          (if s.Tape_intf.swept_nodes = 0 then 0.
           else
             float_of_int s.Tape_intf.visited_nodes
             /. float_of_int s.Tape_intf.swept_nodes);
      })
    last

let all_false_reports ~name ~shape ~spe =
  let n = Scvad_nd.Shape.size shape in
  ( Criticality.of_mask ~name ~shape ~spe ~kind:Criticality.Float_var
      (Array.make n false),
    Impact.of_magnitudes ~name ~shape ~spe (Array.make n 0.) )

(* What one analysis pass produced.  [impact_reports] is non-empty only
   in reverse mode — the one mode whose backward sweep yields magnitudes
   as well as masks. *)
type analysis = {
  float_reports : Criticality.var_report list;
  impact_reports : Impact.var_impact list;
  int_reports : Criticality.var_report list;
  tape_nodes : int;
  tape_profile : Criticality.tape_profile option;
  sweep_profile : Criticality.sweep_profile option;
}

let int_reports (module A : App.S) (int_vars : Variable.int_t list) =
  let taint_masks =
    match A.int_taint_masks with Some f -> f () | None -> []
  in
  List.map
    (fun (iv : Variable.int_t) ->
      let n = Variable.int_elements iv in
      let mask =
        match iv.Variable.icrit with
        | Variable.Always_critical _ -> Array.make n true
        | Variable.By_taint -> (
            match List.assoc_opt iv.Variable.iname taint_masks with
            | Some m when Array.length m = n -> m
            | Some _ | None ->
                (* No analysis answer: stay conservative (critical). *)
                Array.make n true)
      in
      Criticality.of_mask ~name:iv.Variable.iname ~shape:iv.Variable.ishape
        ~spe:1 ~kind:Criticality.Int_var mask)
    int_vars

(* The sweep that reads criticality off the recording: [Gradient] runs
   the backward sweep (masks from zero / nonzero derivatives, plus
   |derivative| magnitudes for the mixed-precision extension);
   [Reach] runs the dependence sweep (an element is active when the
   output is reachable from it, whatever the partials' values). *)
type sweep = Gradient | Reach

(* The one recording protocol of reverse and activity mode.  The prefix
   runs as constants, every checkpoint variable not in [skips] is
   lifted, then each main-loop iteration of the window runs as one
   program step; the last step also computes the output reduction.

   Under a [budget] (node slots and schedule) the tape keeps only a
   window of slabs: each step is a tape segment, the capture hook
   snapshots the checkpoint variables (floats and ints) at its
   boundary, and the replay hook re-runs it from a restored boundary —
   the checkpointing premise ("restore + run reproduces the
   continuation", verified bitwise by the falsifier's stability check)
   is exactly what makes the replay deterministic.  Without a budget
   the tape stores every node and nothing replays.

   Extraction — one scan of every snapshot plus the region encoding —
   fans out per variable. *)
let tape_analysis ?pool ~skips ?capacity_hint ?budget ~sweep
    (module A : App.S) ~at_iter ~niter =
  let tape =
    match budget with
    | Some (budget_nodes, schedule) -> Tape.create ~budget_nodes ~schedule ()
    | None ->
        (* A caller-supplied hint (e.g. the static cost model's exact
           prediction) overrides the app's hand-maintained ballpark. *)
        Tape.create
          ~capacity_hint:(Option.value capacity_hint ~default:A.tape_nodes_hint)
          ()
  in
  let module RS = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let module I = A.Make (RS) in
  let state = I.create () in
  let nsteps = niter - at_iter in
  let out = ref (Reverse.const 0.) in
  let step s =
    I.run state ~from:(at_iter + s) ~until:(at_iter + s + 1);
    if s = nsteps - 1 then out := I.output state
  in
  if budget <> None then begin
    let capture () =
      let fs =
        List.map (fun v -> (v, Variable.snapshot v)) (I.float_vars state)
      in
      let is =
        List.map (fun v -> (v, Variable.int_snapshot v)) (I.int_vars state)
      in
      fun () ->
        List.iter (fun (v, s) -> Variable.restore v s) fs;
        List.iter (fun (v, s) -> Variable.int_restore v s) is
    in
    Tape.set_program tape ~capture ~replay_step:step
  end;
  (* Prelude: constants fold, lifts are parentless — nothing here is
     ever replayed. *)
  I.run state ~from:0 ~until:at_iter;
  (* Capture the lifted nodes: they are the checkpointed values, even if
     the run overwrites the variable afterwards.  Statically-inactive
     variables are pre-resolved: no lifting, no tape nodes. *)
  let snapshots =
    List.map
      (fun (v : RS.t Variable.t) ->
        if List.mem v.Variable.name skips then (v, None)
        else (v, Some (Variable.lift_capture v (Reverse.lift tape))))
      (I.float_vars state)
  in
  for s = 0 to nsteps - 1 do
    if budget <> None then Tape.start_segment tape;
    step s
  done;
  (* A budgeted [backward] replays segments, which rewinds live state to
     interior boundaries; resolve integer criticality now, from the
     completed run, before any replay can disturb it. *)
  let ints = int_reports (module A) (I.int_vars state) in
  (* Per-node magnitude: |d output / d node|, or 1 / 0 for reached /
     unreached under the dependence sweep. *)
  let magnitude =
    match sweep with
    | Gradient -> Reverse.grad (Reverse.backward ?fan:(fan_of pool) tape !out)
    | Reach when Reverse.is_const !out -> fun _ -> 0.
    | Reach ->
        let r = Tape.reach tape ~output:(Reverse.node_id !out) in
        fun x -> if Tape.reachable r (Reverse.node_id x) then 1. else 0.
  in
  let per_var =
    fan pool
      (fun ((v : RS.t Variable.t), snapshot) ->
        match snapshot with
        | None ->
            all_false_reports ~name:v.Variable.name ~shape:v.Variable.shape
              ~spe:v.Variable.spe
        | Some snapshot ->
            let mask, magnitudes =
              Variable.mask_and_magnitudes_of_snapshot v snapshot magnitude
            in
            ( Criticality.of_mask ~name:v.Variable.name ~shape:v.Variable.shape
                ~spe:v.Variable.spe ~kind:Criticality.Float_var mask,
              Impact.of_magnitudes ~name:v.Variable.name ~shape:v.Variable.shape
                ~spe:v.Variable.spe magnitudes ))
      snapshots
  in
  let st = Tape.stats tape in
  {
    float_reports = List.map fst per_var;
    impact_reports =
      (match sweep with Gradient -> List.map snd per_var | Reach -> []);
    int_reports = ints;
    tape_nodes = st.Tape.s_total_nodes;
    tape_profile =
      Option.map
        (fun (budget_nodes, schedule) ->
          {
            Criticality.t_schedule = Tape.Segmented.schedule_to_string schedule;
            t_budget_nodes = budget_nodes;
            t_segments = st.Tape.s_segments;
            t_snapshots = st.Tape.s_snapshots;
            t_replays = st.Tape.s_replays;
            t_replayed_nodes = st.Tape.s_replayed_nodes;
            t_peak_live_nodes = st.Tape.s_peak_live_nodes;
          })
        budget;
    sweep_profile = sweep_profile_of (Tape.last_sweep tape);
  }

let forward_analysis ?pool ~skips (module A : App.S)
    ~at_iter ~niter =
  let module I = A.Make (Dual.Scalar) in
  (* Structure discovery run (no seeding). *)
  let skeleton = I.create () in
  I.run skeleton ~from:0 ~until:at_iter;
  let shapes =
    List.map
      (fun (v : Dual.t Variable.t) ->
        (v.Variable.name, v.Variable.shape, v.Variable.spe))
      (I.float_vars skeleton)
  in
  (* One full re-run per scrutinized element; every probe owns its
     state, so the element loop shards freely across the pool. *)
  let probe vindex e =
    let state = I.create () in
    I.run state ~from:0 ~until:at_iter;
    let v = List.nth (I.float_vars state) vindex in
    for k = 0 to v.Variable.spe - 1 do
      v.Variable.set e k (Dual.var (Dual.value (v.Variable.get e k)))
    done;
    I.run state ~from:at_iter ~until:niter;
    (* lint: allow float-equality — exact-zero tangent is the paper's
       criticality criterion (§III-A), not an approximate comparison *)
    Dual.tangent (I.output state) <> 0.
  in
  let vars =
    List.mapi
      (fun vindex (name, shape, spe) ->
        if List.mem name skips then
          fst (all_false_reports ~name ~shape ~spe)
        else
          let mask =
            fan_init pool (Scvad_nd.Shape.size shape) (fun e -> probe vindex e)
          in
          Criticality.of_mask ~name ~shape ~spe ~kind:Criticality.Float_var
            mask)
      shapes
  in
  {
    float_reports = vars;
    impact_reports = [];
    int_reports = int_reports (module A) (I.int_vars skeleton);
    tape_nodes = 0;
    tape_profile = None;
    sweep_profile = None;
  }

let check_window who ~at_iter ~niter =
  if at_iter < 0 || at_iter >= niter then
    invalid_arg (who ^ ": need 0 <= at_iter < niter")

let analyze_with ~mode ~at_iter ?niter ?pool ?static ?discovered
    ?memory_budget ~schedule ?capacity_hint (module A : App.S) =
  let niter = Option.value niter ~default:A.analysis_niter in
  check_window "Analyzer.run" ~at_iter ~niter;
  (* The skip set: float variables pre-resolved before any AD runs —
     never lifted onto the tape (or probed), with all-false masks and
     all-zero magnitudes by construction.  Two sources feed it: the
     variables the static activity pass proved [Statically_inactive]
     (the paper's "scrutinize before you run" carried to its limit),
     and in discovered mode the variables whose backing field the
     discovery pass ranked prunable.  The @activity-check and
     @discover-check gates fail if the unfiltered dynamic analysis ever
     finds a critical element inside a skipped variable, so a
     gate-checked table never changes a mask. *)
  let skips =
    (match
       Option.bind static (fun vs ->
           Scvad_activity.Verdict.find_app vs ~app:A.name)
     with
    | Some av -> Scvad_activity.Verdict.skippable_float_vars av
    | None -> [])
    @
    match
      Option.bind discovered (fun ps ->
          Scvad_discover.Rank.find_app ps ~app:A.name)
    with
    | Some ranks -> Scvad_discover.Rank.pruned_float_vars ranks
    | None -> []
  in
  (* A memory budget bounds the reverse tape.  The other modes ignore
     it: forward probing records no tape at all, and the dependence
     sweep reads every node below the output, so its tape must keep
     them all. *)
  let a =
    match mode with
    | Criticality.Reverse_gradient ->
        tape_analysis ?pool ~skips ?capacity_hint
          ?budget:(Option.map (fun b -> (b, schedule)) memory_budget)
          ~sweep:Gradient
          (module A)
          ~at_iter ~niter
    | Criticality.Activity_dependence ->
        tape_analysis ?pool ~skips ?capacity_hint ~sweep:Reach
          (module A)
          ~at_iter ~niter
    | Criticality.Forward_probe ->
        forward_analysis ?pool ~skips (module A) ~at_iter ~niter
  in
  {
    Criticality.app = A.name;
    at_iteration = at_iter;
    analyzed_until = niter;
    mode;
    tape_nodes = a.tape_nodes;
    tape_profile = a.tape_profile;
    sweep_profile = a.sweep_profile;
    vars = a.float_reports @ a.int_reports;
  }

(* Guarded scrutiny: harden a report against the static guard pass's
   [Control_tainted] certificates.  Variables whose dataflow escapes
   into discrete consumers (branches, conversions, kinks) can have
   elements the derivative calls uncritical but the output nonetheless
   depends on; the perturbation falsifier hunts such elements over the
   report's own analysis window and promotes every witness to critical.
   Smooth / Unknown variables are left alone — the AD verdict is the
   paper's criterion and the guard only overrides it where the
   criterion is provably inapplicable. *)
type guard_spec = {
  g_certs : Scvad_guard.Cert.certificates;
  g_trials : int;
  g_seed : int;
}

let guard_harden spec (module A : App.S) (report : Criticality.report) =
  match Scvad_guard.Cert.find_app spec.g_certs ~app:A.name with
  | None -> report
  | Some ac ->
      let tainted = Scvad_guard.Cert.tainted_vars ac in
      let targets =
        List.filter_map
          (fun (v : Criticality.var_report) ->
            if not (List.mem v.Criticality.name tainted) then None
            else begin
              let acc = ref [] in
              Array.iteri
                (fun i critical -> if not critical then acc := i :: !acc)
                v.Criticality.mask;
              match !acc with
              | [] -> None
              | rev ->
                  Some
                    {
                      Falsifier.t_var = v.Criticality.name;
                      t_kind = v.Criticality.kind;
                      t_candidates = Array.of_list (List.rev rev);
                    }
            end)
          report.Criticality.vars
      in
      if targets = [] || spec.g_trials <= 0 then report
      else
        let o =
          Falsifier.run ~boundary:report.Criticality.at_iteration
            ~niter:report.Criticality.analyzed_until ~trials:spec.g_trials
            ~seed:spec.g_seed ~targets
            (module A : App.S)
        in
        Falsifier.harden report o.Falsifier.f_witnesses

let maybe_guard guard (module A : App.S) report =
  match guard with
  | None -> report
  | Some spec -> guard_harden spec (module A : App.S) report

(* ------------------------------------------------------------------ *)
(* Configuration record                                                 *)
(* ------------------------------------------------------------------ *)

(* Every knob of {!run}, {!run_suite} and {!run_boundaries}, in one
   value: start from [default] and set fields with the [with_*]
   helpers. *)
module Config = struct
  type t = {
    mode : Criticality.mode;
    at_iter : int;
    niter : int option; (* None: the app's analysis_niter *)
    jobs : int option; (* None: 1 for run, default_jobs for run_suite *)
    static : Scvad_activity.Verdict.verdicts option;
    discovered : Scvad_discover.Rank.proposals option;
        (* scrutinize the discovered checkpoint set: prunable-ranked
           float fields are pre-resolved like statically-inactive ones *)
    guard : guard_spec option;
    memory_budget : int option; (* tape node slots; None: keep every node *)
    schedule : Tape.Segmented.schedule;
    capacity_hint : int option;
        (* slab size of the unbudgeted tape, overriding the app's
           [tape_nodes_hint] — e.g. the cost model's exact prediction *)
  }

  let default =
    {
      mode = Criticality.Reverse_gradient;
      at_iter = 0;
      niter = None;
      jobs = None;
      static = None;
      discovered = None;
      guard = None;
      memory_budget = None;
      schedule = Tape.Segmented.Binomial;
      capacity_hint = None;
    }

  let with_mode mode c = { c with mode }
  let with_at_iter at_iter c = { c with at_iter }
  let with_niter n c = { c with niter = Some n }
  let with_jobs j c = { c with jobs = Some j }
  let with_static s c = { c with static = Some s }
  let with_discovered ps c = { c with discovered = Some ps }
  let with_guard g c = { c with guard = Some g }
  let with_memory_budget b c = { c with memory_budget = Some b }
  let with_schedule schedule c = { c with schedule }
  let with_capacity_hint h c = { c with capacity_hint = Some h }
end

let run ?(config = Config.default) (module A : App.S) =
  let {
    Config.mode;
    at_iter;
    niter;
    jobs;
    static;
    discovered;
    guard;
    memory_budget;
    schedule;
    capacity_hint;
  } =
    config
  in
  let jobs = Option.value jobs ~default:1 in
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Analyzer.run: jobs must be >= 1 (got %d)" jobs);
  let report =
    if jobs = 1 then
      analyze_with ~mode ~at_iter ?niter ?static ?discovered ?memory_budget
        ~schedule ?capacity_hint (module A)
    else
      Pool.with_pool ~jobs (fun pool ->
          analyze_with ~mode ~at_iter ?niter ~pool ?static ?discovered
            ?memory_budget ~schedule ?capacity_hint (module A))
  in
  maybe_guard guard (module A) report

(* Suite-level parallelism: each benchmark's analysis builds its own
   tape and state, so the eight analyses share nothing and run whole on
   separate domains.  The same pool also serves the per-analysis
   fan-outs: a nested Pool.map from inside a worker degrades to the
   sequential path, so the pool never deadlocks on itself. *)
let run_suite ?(config = Config.default) apps =
  let {
    Config.mode;
    at_iter;
    niter;
    jobs;
    static;
    discovered;
    guard;
    memory_budget;
    schedule;
    capacity_hint;
  } =
    config
  in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Analyzer.run_suite: jobs must be >= 1 (got %d)" jobs);
  let one pool app =
    maybe_guard guard app
      (analyze_with ~mode ~at_iter ?niter ?pool ?static ?discovered
         ?memory_budget ~schedule ?capacity_hint app)
  in
  if jobs = 1 then List.map (one None) apps
  else
    Pool.with_pool ~jobs (fun pool -> Pool.map pool (one (Some pool)) apps)

(* Union over several checkpoint boundaries: an element is critical if
   SOME checkpoint needs it.  This is the right notion for a checkpoint
   policy that prunes with one mask at every interval (cf. IS, whose
   key_array matters mid-run while bucket_ptrs matters just before the
   final verification). *)
let run_boundaries ?(config = Config.default) ~boundaries (module A : App.S) =
  match boundaries with
  | [] -> invalid_arg "Analyzer.run_boundaries: no boundaries"
  | first :: _ ->
      let reports =
        List.map
          (fun at_iter ->
            run ~config:{ config with Config.at_iter } (module A))
          boundaries
      in
      let union_var (a : Criticality.var_report) (b : Criticality.var_report) =
        Criticality.of_mask ~name:a.Criticality.name ~shape:a.Criticality.shape
          ~spe:a.Criticality.spe ~kind:a.Criticality.kind
          (Array.map2 ( || ) a.Criticality.mask b.Criticality.mask)
      in
      let base = List.hd reports in
      let vars =
        List.map
          (fun (v : Criticality.var_report) ->
            List.fold_left
              (fun acc r -> union_var acc (Criticality.find r v.Criticality.name))
              v (List.tl reports))
          base.Criticality.vars
      in
      {
        base with
        Criticality.at_iteration = first;
        vars;
        tape_nodes =
          List.fold_left (fun acc r -> acc + r.Criticality.tape_nodes) 0 reports;
        sweep_profile =
          (match
             List.filter_map (fun r -> r.Criticality.sweep_profile) reports
           with
          | [] -> None
          | profs ->
              let v =
                List.fold_left
                  (fun a p -> a + p.Criticality.w_visited_nodes)
                  0 profs
              and s =
                List.fold_left
                  (fun a p -> a + p.Criticality.w_swept_nodes)
                  0 profs
              in
              Some
                {
                  Criticality.w_visited_nodes = v;
                  w_swept_nodes = s;
                  w_active_fraction =
                    (if s = 0 then 0. else float_of_int v /. float_of_int s);
                });
      }

(* Impact magnitudes (reverse mode only): the input of the
   mixed-precision checkpoint planner. *)
let analyze_impact ?(at_iter = 0) ?niter (module A : App.S) =
  let niter = Option.value niter ~default:A.analysis_niter in
  check_window "Analyzer.analyze_impact" ~at_iter ~niter;
  let a =
    tape_analysis ~skips:[] ~sweep:Gradient (module A) ~at_iter ~niter
  in
  { Impact.app = A.name; at_iteration = at_iter; analyzed_until = niter;
    vars = a.impact_reports }
