(** Non-differentiable dataflow certificates.

    A certificate is a claim about the {e paper's criterion}, not about
    criticality itself: it says where "derivative = 0" is allowed to
    mean "uncritical".  [Smooth] permits the criterion (and is gated by
    the perturbation falsifier); [Control_tainted] records concrete
    float-to-discrete escape sites that break it; [Unknown] refuses to
    rule because taint leaked into code the pass cannot see. *)

module Verdict = Scvad_activity.Verdict

(** Escape kinds and sites are {!Scvad_activity.Escapes}'s, re-exported. *)
type escape_kind = Scvad_activity.Escapes.escape_kind =
  | Branch  (** branch predicate, loop condition or bound *)
  | Int_conversion  (** int/float conversion severing the chain *)
  | Subscript  (** data-dependent array index *)
  | Compare  (** comparison or polymorphic compare *)
  | Kink  (** abs / min / max / mod_float / floor / ceil *)

val escape_kind_name : escape_kind -> string
val escape_kind_of_name : string -> escape_kind option

type site = Scvad_activity.Escapes.site = {
  s_file : string;
  s_line : int;
  s_kind : escape_kind;
  s_detail : string;  (** the offending operation, e.g. ["if condition"] *)
}

val site_to_string : site -> string

type class_ = Smooth | Control_tainted | Unknown

val class_name : class_ -> string
val class_of_name : string -> class_ option

type var_cert = {
  var : string;
  kind : Verdict.kind;
  class_ : class_;
  sites : site list;
  reaches_output : bool;
  elements : int option;
  reason : string;
  assumed : bool;
}

type app_certs = {
  app : string;
  source : string;
  resolved : bool;
  certs : var_cert list;
  notes : string list;
}

type certificates = app_certs list

val find_app : certificates -> app:string -> app_certs option
val find_var : app_certs -> var:string -> var_cert option
val find : certificates -> app:string -> var:string -> var_cert option

(** Variables whose AD verdict needs dynamic hardening. *)
val tainted_vars : app_certs -> string list

(** Smooth claims — the falsifier's validation obligations. *)
val smooth_vars : app_certs -> string list

val count_class : certificates -> class_ -> int
