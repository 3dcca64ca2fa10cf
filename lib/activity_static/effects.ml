(* Classification of callee paths the abstract interpreter understands.
   Everything outside this table is an unknown call and handled with
   full conservatism (arguments read, array arguments also written,
   result tainted by every argument). *)

type hof =
  | Iter  (** f applied to each element; unit result *)
  | Iteri  (** f applied to index and element *)
  | Map  (** like iter but the results form a new array *)
  | Fold  (** accumulator threaded through the elements *)

type t =
  | Pure  (** result depends on the arguments, nothing else touched *)
  | Array_get
  | Array_set
  | Array_length
  | Array_alloc  (** make / copy / append / sub / init / of_list / concat *)
  | Array_init
  | Array_hof of hof
  | Array_fill
  | Array_blit
  | Array_sort
  | Deref
  | Assign
  | Incr  (** incr / decr *)
  | Ref_make
  | Ignore
  | Raise  (** raise / failwith / invalid_arg: no data flow out *)
  | Vranlc  (** Nprand.vranlc — the one modeled full-kill primitive *)
  | Unknown_call

(* Pure by (unqualified) name: Stdlib arithmetic, comparisons, math,
   conversions — and the Scalar.S vocabulary, which reaches here
   unqualified inside [S.(...)] opens. *)
let is_pure_name = function
  | "+" | "-" | "*" | "/" | "mod" | "land" | "lor" | "lxor" | "lsl" | "lsr"
  | "asr" | "~-" | "~+" | "+." | "-." | "*." | "/." | "**" | "~-." | "~+."
  | "abs" | "abs_float" | "sqrt" | "exp" | "log" | "log10" | "sin" | "cos"
  | "tan" | "atan" | "atan2" | "floor" | "ceil" | "min" | "max"
  | "float_of_int" | "int_of_float" | "truncate" | "float" | "of_int"
  | "to_int" | "of_float" | "to_float" | "succ" | "pred" | "=" | "<>" | "<"
  | ">" | "<=" | ">=" | "==" | "!=" | "compare" | "&&" | "||" | "not" | "fst"
  | "snd" | "mod_float" | "copysign" | "is_nan" | "pow" | "one" | "zero"
  | "of_floats" | "to_floats" ->
      true
  | _ -> false

(* Stdlib container modules whose higher-order functions we model.
   List/Seq traffic never aliases a state array, so sharing the Array
   classification is sound (the handler degrades to Pure-ish taint when
   the argument is not an array handle). *)
let is_seq_module m = m = "Array" || m = "List" || m = "Seq"

(* Pure scalar-ish modules: every function is a value computation. *)
let is_pure_module m =
  m = "Float" || m = "Int" || m = "Bool" || m = "Char" || m = "String"

(* Classify a callee path (flattened segments, [Stdlib] prefix
   dropped).  [pure_module] says whether a module name is a Scalar.S
   functor parameter. *)
let classify ~pure_module path =
  let path =
    match path with "Stdlib" :: rest when rest <> [] -> rest | p -> p
  in
  match path with
  | [ m; f ] when is_seq_module m -> (
      match f with
      | "get" | "unsafe_get" -> Array_get
      | "set" | "unsafe_set" -> Array_set
      | "length" -> Array_length
      | "make" | "create_float" | "copy" | "append" | "sub" | "of_list"
      | "concat" | "to_list" ->
          Array_alloc
      | "init" -> Array_init
      | "iter" -> Array_hof Iter
      | "iteri" -> Array_hof Iteri
      | "map" | "mapi" | "map2" | "iter2" | "for_all" | "exists" | "mem"
      | "find_opt" | "filter" ->
          Array_hof Map
      | "fold_left" | "fold_right" -> Array_hof Fold
      | "fill" -> Array_fill
      | "blit" -> Array_blit
      | "sort" | "stable_sort" | "fast_sort" -> Array_sort
      | _ -> Unknown_call)
  | [ m; _ ] when pure_module m || is_pure_module m -> Pure
  | [ "Nprand"; f ] | [ _; "Nprand"; f ] -> (
      match f with
      | "vranlc" -> Vranlc
      | "create" | "next" | "randlc" | "ipow46" -> Pure
      | _ -> Unknown_call)
  | [ f ] -> (
      match f with
      | "!" -> Deref
      | ":=" -> Assign
      | "incr" | "decr" -> Incr
      | "ignore" -> Ignore
      | "ref" -> Ref_make
      | "raise" | "raise_notrace" | "failwith" | "invalid_arg" -> Raise
      | _ when is_pure_name f -> Pure
      | _ -> Unknown_call)
  | _ -> Unknown_call
