(** Typed lint findings.

    Every diagnostic the analysis emits is one {!t}: which rule fired,
    where, why, and how severe.  Findings are value types with a total
    order, so reports are deterministic: the driver sorts by
    (file, line, rule, message) before printing. *)

(** The seven analysis rules (DESIGN.md §10), plus the two
    meta-diagnostics the driver itself can emit. *)
type rule =
  | Domain_safety  (** top-level mutable state in a [Pool.map]-reachable library *)
  | Domain_spawn_outside_pool
      (** raw [Domain.spawn]/[Domain.join] outside the pool runtime *)
  | Unsafe_access  (** [unsafe_get]/[unsafe_set] outside the allowlist *)
  | Float_equality  (** structural [=]/[<>]/[compare] on float operands *)
  | Swallowed_exception  (** [try … with _ ->] catch-alls *)
  | Deprecated_entrypoint
      (** call to a deprecated [Analyzer.analyze*] wrapper *)
  | Bigarray_generic_access
      (** Bigarray parameter indexed in a loop without a concrete
          (kind, layout) [Array1.t] annotation *)
  | Pragma  (** malformed or unused [(* lint: allow … *)] pragma *)
  | Syntax  (** the file did not parse *)

type severity = Error | Warning

type t = {
  rule : rule;
  file : string;
  line : int;
  message : string;
  severity : severity;
}

val rule_name : rule -> string

(** Inverse of {!rule_name}; [None] on unknown names. *)
val rule_of_name : string -> rule option

val severity_name : severity -> string
val severity_of_name : string -> severity option

(** Total order: (file, line, rule name, message, severity). *)
val compare : t -> t -> int

(** ["file:line: [severity] rule: message"]. *)
val to_text : t -> string

(** [{"rule", "file", "line", "severity", "message"}], the object every
    pass's JSON report lists its findings as. *)
val to_json : t -> Scvad_util.Ljson.t
