(** Float-to-discrete escapes: the kinds of discrete consumer, the
    recorded site, and the callee vocabulary whose application records
    an escape when tainted data flows in. *)

type escape_kind =
  | Branch  (** branch predicate, loop condition or bound *)
  | Int_conversion  (** int/float conversion severing the chain *)
  | Subscript  (** data-dependent array index *)
  | Compare  (** comparison or polymorphic compare *)
  | Kink  (** abs / min / max / mod_float / floor / ceil *)

val escape_kind_name : escape_kind -> string
val escape_kind_of_name : string -> escape_kind option

type site = {
  s_file : string;
  s_line : int;
  s_kind : escape_kind;
  s_detail : string;  (** the offending operation, e.g. ["if condition"] *)
}

val site_to_string : site -> string

(** Escape kind of an application of [name], if it is in the
    discrete-consumer vocabulary (comparisons, int/float conversions,
    kinks). *)
val classify : string -> escape_kind option
