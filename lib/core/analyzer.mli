(** The scrutiny engine (paper §III-A).

    [analyze app] models a checkpoint taken at main-loop iteration
    [at_iter]: the kernel runs to the boundary as AD constants (free —
    constants fold), every element of every checkpoint variable is
    lifted onto the tape (that is the checkpointed state), the
    remaining window runs, and d output / d element decides
    criticality: zero derivative ⇒ uncritical.

    Integer variables are resolved from their declared criticality or,
    for [By_taint] variables, from the application's integer-dependence
    analysis hook.

    Every analysis can fan its independent parts out over a
    {!Scvad_par.Pool}: per-variable mask/region extraction (reverse and
    activity modes), per-element dual-number probes (forward mode), and
    whole per-benchmark analyses ({!run_suite}).  Nothing is shared
    between the fanned-out parts — each analysis owns its tape, each
    probe its state — so results are bitwise identical for any job
    count. *)

(** Analysis configuration: every knob of the engine in one value.

    Build one by overriding {!Config.default}, either with a record
    update or the [with_*] combinators:

    {[
      Analyzer.Config.(
        default |> with_at_iter 1 |> with_jobs 4
        |> with_memory_budget 1_000_000)
    ]} *)
module Config : sig
  type t = {
    mode : Criticality.mode;
        (** [Reverse_gradient] (default): one taped run + one backward
            sweep for all elements.  [Forward_probe] re-runs the
            application once per element with a dual-number seed
            (oracle and ablation).  [Activity_dependence] tracks
            reachability only — cheaper, but a zero-valued partial
            still counts as a dependence. *)
    at_iter : int;  (** checkpoint boundary (default 0) *)
    niter : int option;
        (** end of the analyzed window (default the app's
            [analysis_niter]); must satisfy [0 <= at_iter < niter].  A
            window shorter than the true remaining run is conservative
            for elements the unanalyzed iterations would overwrite, and
            all eight NPB kernels have iteration-invariant access
            patterns, so the short default windows reproduce the
            full-run answer (asserted by the test suite). *)
    jobs : int option;
        (** width of the transient domain pool the analysis fans out
            on; 1 means fully sequential.  Default 1 for {!run},
            [Scvad_par.Pool.default_jobs ()] for {!run_suite}.  The
            produced report is bitwise identical for every [jobs]. *)
    skip : (string * string list) list;
        (** float variables to pre-resolve, listed per app by name
            (default none): the analysis never lifts them onto the
            tape (or probes them) and reports them with all-false
            masks.  [scvad check activity] fills it with the variables
            the static activity pass proved inactive, [scvad check
            discover] with those whose backing field the discovery
            pass ranked prunable; their gates assert that this leaves
            every mask of the unfiltered analysis unchanged. *)
    memory_budget : int option;
        (** cap on materialized tape node slots (16 bytes each, 24 in
            a slab that holds a node with two general partials).  Set:
            reverse mode records on a budgeted {!Scvad_ad.Tape} —
            discarded tape windows are rebuilt by replaying iterations
            during the backward sweep — and the report carries a
            [tape_profile].  Unset (default): the tape stores every
            node.  Ignored by forward mode, which records no tape, and
            by activity mode, whose dependence sweep reads every stored
            node.  A budget too small for the lifted checkpoint state
            raises {!Scvad_ad.Tape_intf.Budget_too_small}. *)
  }

  val default : t
  val with_mode : Criticality.mode -> t -> t
  val with_at_iter : int -> t -> t
  val with_niter : int -> t -> t
  val with_jobs : int -> t -> t
  val with_skip : (string * string list) list -> t -> t
  val with_memory_budget : int -> t -> t

  (** [with_schedule Binomial c] is [c]: the budgeted tape has one
      schedule.  Kept only because the benchmark calls it. *)
  val with_schedule : Scvad_ad.Tape.Segmented.schedule -> t -> t
end

(** [check_window who ~at_iter ~niter] raises
    [Invalid_argument (who ^ ": need 0 <= at_iter < niter")] for an
    analysis window {!run} rejects.  Shared by every caller that
    replays the analyzer's protocol, such as the static cost model. *)
val check_window : string -> at_iter:int -> niter:int -> unit

(** [run ?config app] analyzes one benchmark under [config] (default
    {!Config.default}). *)
val run : ?config:Config.t -> (module App.S) -> Criticality.report

(** [run_suite ?config apps] analyzes every benchmark of [apps] and
    returns the reports in input order.  Each analysis builds its own
    tape and state, so whole analyses run in parallel on a pool of
    [config.jobs] domains (default [Scvad_par.Pool.default_jobs ()] —
    the recommended domain count clamped to the container's CPU quota);
    the same pool serves the per-analysis fan-outs.  Reports are
    bitwise identical for every [jobs]. *)
val run_suite :
  ?config:Config.t -> (module App.S) list -> Criticality.report list

(** Union over several checkpoint boundaries: an element is critical if
    {e some} checkpoint needs it — the right mask for a policy that
    prunes with a single region set at every interval.  [config.at_iter]
    is ignored; the result's [at_iteration] is the first boundary and
    [tape_nodes] is the total. *)
val run_boundaries :
  ?config:Config.t ->
  boundaries:int list ->
  (module App.S) ->
  Criticality.report

(** Impact magnitudes |d output / d element| from the same reverse
    pass — the input of the mixed-precision checkpoint planner
    ({!Mixed}). *)
val analyze_impact :
  ?at_iter:int -> ?niter:int -> (module App.S) -> Impact.report
