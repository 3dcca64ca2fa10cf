type rule =
  | Domain_safety
  | Domain_spawn_outside_pool
  | Unsafe_access
  | Float_equality
  | Swallowed_exception
  | Deprecated_entrypoint
  | Bigarray_generic_access
  | Pragma
  | Syntax

type severity = Error | Warning

type t = {
  rule : rule;
  file : string;
  line : int;
  message : string;
  severity : severity;
}

let rule_name = function
  | Domain_safety -> "domain-safety"
  | Domain_spawn_outside_pool -> "domain-spawn-outside-pool"
  | Unsafe_access -> "unsafe-access"
  | Float_equality -> "float-equality"
  | Swallowed_exception -> "swallowed-exception"
  | Deprecated_entrypoint -> "deprecated-entrypoint"
  | Bigarray_generic_access -> "bigarray-generic-access"
  | Pragma -> "pragma"
  | Syntax -> "syntax"

let rule_of_name = function
  | "domain-safety" -> Some Domain_safety
  | "domain-spawn-outside-pool" -> Some Domain_spawn_outside_pool
  | "unsafe-access" -> Some Unsafe_access
  | "float-equality" -> Some Float_equality
  | "swallowed-exception" -> Some Swallowed_exception
  | "deprecated-entrypoint" -> Some Deprecated_entrypoint
  | "bigarray-generic-access" -> Some Bigarray_generic_access
  | "pragma" -> Some Pragma
  | "syntax" -> Some Syntax
  | _ -> None

let severity_name = function Error -> "error" | Warning -> "warning"

let severity_of_name = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | _ -> None

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = String.compare (rule_name a.rule) (rule_name b.rule) in
      if c <> 0 then c
      else
        let c = String.compare a.message b.message in
        if c <> 0 then c
        else String.compare (severity_name a.severity) (severity_name b.severity)

let to_text f =
  Printf.sprintf "%s:%d: [%s] %s: %s" f.file f.line
    (severity_name f.severity) (rule_name f.rule) f.message

let to_json f =
  let open Scvad_util.Ljson in
  Obj
    [
      ("rule", Str (rule_name f.rule));
      ("file", Str f.file);
      ("line", Int f.line);
      ("severity", Str (severity_name f.severity));
      ("message", Str f.message);
    ]
