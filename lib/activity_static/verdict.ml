(* The three-valued static activity lattice (paper §III-A read
   statically; AutoCheck's data-dependency criterion).

   A verdict is a *claim* about one checkpoint variable:

   - [Statically_inactive]: every element provably has zero derivative
     d output / d element — the checkpointed value is either never
     consumed by the post-checkpoint window (killed by a full overwrite
     before any read, or never read at all) or its reads provably never
     flow into the output.  This is the only claim with soundness
     obligations: the dynamic engine must never find a critical element
     inside it (the @activity-check gate).
   - [Statically_active]: a data-dependence path from the checkpointed
     value to the benchmark output exists (may-analysis; a path can
     still carry an exactly-zero partial, so this claim is not gated).
   - [Unknown]: the pass could not resolve the kernel far enough —
     functor-opaque operations (IS), data-dependent loop bounds (CG),
     or constructs outside the modeled fragment. *)

type class_ = Statically_inactive | Statically_active | Unknown

let class_name = function
  | Statically_inactive -> "statically-inactive"
  | Statically_active -> "statically-active"
  | Unknown -> "unknown"

type kind = Float_var | Int_var

let kind_name = function Float_var -> "float" | Int_var -> "int"

(* One checkpoint variable's verdict.  [inactive] holds the element
   spans proven inactive: the whole variable when [class_] is
   [Statically_inactive], a refinement subset (e.g. FT's padding plane)
   when an active variable has provably-dead intervals. *)
type var_verdict = {
  var : string;
  kind : kind;
  class_ : class_;
  elements : int option;  (** element count when statically known *)
  inactive : Scvad_checkpoint.Regions.t;
      (** element spans proven zero-derivative *)
  reason : string;  (** proof sketch or why the pass gave up *)
  assumed : bool;  (** forced by an [(* activity: assume … *)] pragma *)
}

let inactive_elements v = Scvad_checkpoint.Regions.cardinal v.inactive

(* Everything the pass decided about one benchmark. *)
type app_verdicts = {
  app : string;
  source : string;  (** the kernel file the verdicts were derived from *)
  resolved : bool;
      (** false when extraction failed and every verdict is [Unknown] *)
  vars : var_verdict list;
  notes : string list;  (** imprecision notes (what forced [Unknown]) *)
}

type verdicts = app_verdicts list

let find_app (vs : verdicts) ~app =
  List.find_opt (fun (a : app_verdicts) -> a.app = app) vs

let find_var (a : app_verdicts) ~var =
  List.find_opt (fun (v : var_verdict) -> v.var = var) a.vars

let find (vs : verdicts) ~app ~var =
  Option.bind (find_app vs ~app) (fun a -> find_var a ~var)

(* The analyzer fast path: float variables whose whole value is proven
   inactive can skip tape lifting entirely. *)
let skippable_float_vars (a : app_verdicts) =
  List.filter_map
    (fun v ->
      if v.kind = Float_var && v.class_ = Statically_inactive then Some v.var
      else None)
    a.vars

(* Total statically-inactive claims (whole variables and refinement
   intervals) across a suite — the gate requires this to be nonzero. *)
let total_inactive_claims (vs : verdicts) =
  List.fold_left
    (fun acc a ->
      List.fold_left (fun acc v -> acc + inactive_elements v) acc a.vars)
    0 vs
