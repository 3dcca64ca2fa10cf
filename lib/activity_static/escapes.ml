(* Float-to-discrete escapes: the sites where a checkpointed value
   stops flowing smoothly (the guard's vocabulary), recorded by the
   abstract interpreter next to its activity facts. *)

type escape_kind = Branch | Int_conversion | Subscript | Compare | Kink

let escape_kind_name = function
  | Branch -> "branch"
  | Int_conversion -> "int-conversion"
  | Subscript -> "subscript"
  | Compare -> "compare"
  | Kink -> "kink"

let escape_kind_of_name = function
  | "branch" -> Some Branch
  | "int-conversion" -> Some Int_conversion
  | "subscript" -> Some Subscript
  | "compare" -> Some Compare
  | "kink" -> Some Kink
  | _ -> None

(* One concrete float-to-discrete escape: where (file:line), how
   (kind), and what the expression was (detail, e.g. "if condition" or
   "int_of_float"). *)
type site = {
  s_file : string;
  s_line : int;
  s_kind : escape_kind;
  s_detail : string;
}

let site_to_string s =
  Printf.sprintf "%s:%d %s (%s)" s.s_file s.s_line
    (escape_kind_name s.s_kind) s.s_detail

(* [classify name] is the escape kind an application of [name] records
   when a tainted value reaches it, if any: the discrete-consumer
   vocabulary.  Most of these classify as [Pure] in {!Effects} — purity
   is exactly the problem: the value's influence survives, but reverse
   mode only sees the locally-selected piece.

   - Comparisons: the result is a bool/ordering, so every downstream
     use is control flow or discrete data.
   - Conversions between int and float sever the derivative chain in
     both directions: int_of_float discretizes a float; float_of_int
     re-enters AD as a constant, hiding whatever arithmetic produced
     the int.
   - Kinks: continuous but non-differentiable (or piecewise)
     primitives.  Reverse mode differentiates the selected piece, so a
     zero derivative says nothing about the unselected one. *)
let classify = function
  | "=" | "<>" | "<" | ">" | "<=" | ">=" | "==" | "!=" | "compare" | "equal"
    ->
      Some Compare
  | "int_of_float" | "truncate" | "to_int" | "float_of_int" | "float"
  | "of_int" ->
      Some Int_conversion
  | "abs" | "abs_float" | "min" | "max" | "mod" | "mod_float" | "rem"
  | "floor" | "ceil" | "copysign" ->
      Some Kink
  | _ -> None
