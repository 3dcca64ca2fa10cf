(* The non-differentiable dataflow certificate (the guard's verdict
   lattice).

   The paper's criterion — derivative zero implies uncritical — is
   sound only while a checkpointed value influences the output through
   *smooth* dataflow.  The moment a value flows into a branch
   predicate, an integer conversion, an array subscript, a comparison,
   or a non-smooth kink, reverse mode sees one locally-constant piece
   of a piecewise function and a zero derivative stops meaning "the
   output does not depend on this element".

   A certificate is therefore a *claim about the criterion*, not about
   criticality itself:

   - [Smooth]: no element of the variable can reach a discrete
     consumer on the run->output cone; "derivative = 0 => uncritical"
     is permitted.  This is the only claim with soundness obligations:
     the perturbation falsifier must never produce a witness against
     it (the @guard-check gate).
   - [Control_tainted]: a concrete escape site exists (file:line and
     kind recorded); AD verdicts over this variable must be hardened
     by the dynamic falsifier before a mask may prune it.
   - [Unknown]: the variable's taint leaked into code the pass cannot
     see (an external solver call, an unresolvable construct); the
     guard refuses to rule, and only an explicit
     [(* guard: assume smooth ... *)] pragma — still falsifier-tested
     — can rescue it. *)

module Verdict = Scvad_activity.Verdict

(* The escape vocabulary lives beside the interpreter that records it;
   re-exported here so certificates keep their own names. *)
module Escapes = Scvad_activity.Escapes

type escape_kind = Escapes.escape_kind =
  | Branch
  | Int_conversion
  | Subscript
  | Compare
  | Kink

let escape_kind_name = Escapes.escape_kind_name
let escape_kind_of_name = Escapes.escape_kind_of_name

type site = Escapes.site = {
  s_file : string;
  s_line : int;
  s_kind : escape_kind;
  s_detail : string;
}

let site_to_string = Escapes.site_to_string

type class_ = Smooth | Control_tainted | Unknown

let class_name = function
  | Smooth -> "smooth"
  | Control_tainted -> "control-tainted"
  | Unknown -> "unknown"

let class_of_name = function
  | "smooth" -> Some Smooth
  | "control-tainted" | "tainted" -> Some Control_tainted
  | "unknown" -> Some Unknown
  | _ -> None

(* One checkpoint variable's certificate. *)
type var_cert = {
  var : string;
  kind : Verdict.kind;
  class_ : class_;
  sites : site list;  (** escape sites tainted by this variable *)
  reaches_output : bool;
      (** the backing field has a may-dependence path to the output *)
  elements : int option;  (** element count when statically known *)
  reason : string;  (** proof sketch or why the pass gave up *)
  assumed : bool;  (** forced by a [(* guard: assume smooth … *)] pragma *)
}

(* Everything the guard decided about one benchmark. *)
type app_certs = {
  app : string;
  source : string;  (** the kernel file the certificates derive from *)
  resolved : bool;
      (** false when extraction failed and every certificate is Unknown *)
  certs : var_cert list;
  notes : string list;  (** imprecision/transparency notes *)
}

type certificates = app_certs list

let find_app (cs : certificates) ~app =
  List.find_opt (fun (a : app_certs) -> a.app = app) cs

let find_var (a : app_certs) ~var =
  List.find_opt (fun (v : var_cert) -> v.var = var) a.certs

let find (cs : certificates) ~app ~var =
  Option.bind (find_app cs ~app) (fun a -> find_var a ~var)

(* Variables whose AD verdict needs dynamic hardening before a pruned
   checkpoint may trust it. *)
let tainted_vars (a : app_certs) =
  List.filter_map
    (fun v -> if v.class_ = Control_tainted then Some v.var else None)
    a.certs

(* Smooth claims (including pragma-assumed ones) across a suite: the
   falsifier's validation obligations. *)
let smooth_vars (a : app_certs) =
  List.filter_map
    (fun v -> if v.class_ = Smooth then Some v.var else None)
    a.certs

let count_class (cs : certificates) cls =
  List.fold_left
    (fun acc a ->
      List.fold_left
        (fun acc v -> if v.class_ = cls then acc + 1 else acc)
        acc a.certs)
    0 cs
