(* Effect contracts for calls the interpreter does not inline.

   The abstract interpreter inlines every call it can resolve inside
   the scanned tree; everything else must be covered by a contract or
   it becomes an obligation (and the site's verdict degrades to
   [Unknown]).  Three layers of contracts exist:

   - the pervasives table below: per-function argument effects for the
     stdlib surface the engine actually uses.  [Written] / [Written_at]
     mark mutating positions; [Applied] marks higher-order positions
     whose closure the interpreter must re-enter;
   - trusted runtime modules ([Sanitize], [Mutex], [Atomic] on state it
     allocated): their internal mutation is the mechanism under
     certification, not a shard write — see {!trusted_module};
   - the module contract the interpreter applies to unresolvable
     [I.f]-style calls through first-class modules, documented there.

   The table is deny-by-default: an absent name yields no contract and
   the caller records an obligation. *)

type arg_use =
  | Read  (** read-only: contributes roots to the result, never written *)
  | Written  (** may be mutated at any element *)
  | Written_at of int
      (** mutated exactly at the element the argument at this position
          selects (enables the affine-lane proof) *)
  | Applied  (** a closure the callee applies; re-entered by the interp *)

type result_shape =
  | R_pure  (** immediate value: carries no roots *)
  | R_view  (** aliases its arguments: roots = union of arg roots *)
  | R_alloc  (** fresh container that may hold args: Fresh + arg roots *)

type t = { c_args : arg_use list; c_result : result_shape }

let pure n = (n, { c_args = []; c_result = R_pure })
let view n = (n, { c_args = []; c_result = R_view })
let alloc n = (n, { c_args = []; c_result = R_alloc })
let c n args result = (n, { c_args = args; c_result = result })

(* Argument positions not listed in [c_args] default to [Read]. *)
let arg_use t i =
  match List.nth_opt t.c_args i with Some u -> u | None -> Read

let table : (string, t) Hashtbl.t = Hashtbl.create 256

(* Each name is registered once: a second entry for the same name
   would silently replace the first. *)
let register prefix entries =
  List.iter
    (fun (n, ct) ->
      let key = if prefix = "" then n else prefix ^ "." ^ n in
      if Hashtbl.mem table key then
        invalid_arg ("Contracts.register: duplicate contract for " ^ key);
      Hashtbl.add table key ct)
    entries

let () =
  register "Array"
    [
      c "make" [ Read; Read ] R_alloc;
      c "create_float" [ Read ] R_alloc;
      c "init" [ Read; Applied ] R_alloc;
      pure "length";
      view "get"; view "unsafe_get";
      c "set" [ Written_at 1; Read; Read ] R_pure;
      c "unsafe_set" [ Written_at 1; Read; Read ] R_pure;
      c "fill" [ Written; Read; Read; Read ] R_pure;
      c "blit" [ Read; Read; Written; Read; Read ] R_pure;
      alloc "copy"; alloc "append"; alloc "sub"; alloc "concat";
      c "map" [ Applied; Read ] R_alloc;
      c "mapi" [ Applied; Read ] R_alloc;
      c "iter" [ Applied; Read ] R_pure;
      c "iteri" [ Applied; Read ] R_pure;
      c "fold_left" [ Applied; Read; Read ] R_view;
      c "exists" [ Applied; Read ] R_pure;
      c "for_all" [ Applied; Read ] R_pure;
      pure "mem"; alloc "to_list"; alloc "of_list";
      c "sort" [ Applied; Written ] R_pure;
    ];
  register "Float.Array"
    [
      alloc "make"; alloc "create"; pure "length";
      pure "get"; pure "unsafe_get";
      c "set" [ Written_at 1; Read; Read ] R_pure;
      c "unsafe_set" [ Written_at 1; Read; Read ] R_pure;
      c "fill" [ Written; Read; Read; Read ] R_pure;
      c "blit" [ Read; Read; Written; Read; Read ] R_pure;
    ];
  register "List"
    [
      c "map" [ Applied; Read ] R_alloc;
      c "mapi" [ Applied; Read ] R_alloc;
      c "rev_map" [ Applied; Read ] R_alloc;
      c "concat_map" [ Applied; Read ] R_alloc;
      c "iter" [ Applied; Read ] R_pure;
      c "iteri" [ Applied; Read ] R_pure;
      c "filter" [ Applied; Read ] R_view;
      c "filter_map" [ Applied; Read ] R_alloc;
      c "fold_left" [ Applied; Read; Read ] R_view;
      c "fold_left2" [ Applied; Read; Read; Read ] R_view;
      c "exists" [ Applied; Read ] R_pure;
      c "for_all" [ Applied; Read ] R_pure;
      c "find_opt" [ Applied; Read ] R_view;
      c "partition" [ Applied; Read ] R_view;
      c "sort" [ Applied; Read ] R_view;
      c "sort_uniq" [ Applied; Read ] R_view;
      c "init" [ Read; Applied ] R_alloc;
      c "iter2" [ Applied; Read; Read ] R_pure;
      c "map2" [ Applied; Read; Read ] R_alloc;
      pure "length"; pure "mem"; pure "mem_assoc";
      view "rev"; view "append"; view "concat"; view "flatten";
      view "hd"; view "tl"; view "nth"; view "nth_opt"; view "assoc";
      view "assoc_opt"; view "combine"; view "split"; view "rev_append";
      view "to_seq"; alloc "of_seq";
    ];
  register "Hashtbl"
    [
      alloc "create";
      c "add" [ Written; Read; Read ] R_pure;
      c "replace" [ Written; Read; Read ] R_pure;
      c "remove" [ Written; Read ] R_pure;
      c "reset" [ Written ] R_pure;
      c "clear" [ Written ] R_pure;
      view "find"; view "find_opt"; view "find_all";
      pure "mem"; pure "length"; pure "hash";
      c "iter" [ Applied; Read ] R_pure;
      c "fold" [ Applied; Read; Read ] R_view;
      view "to_seq"; view "to_seq_keys"; view "to_seq_values";
    ];
  register "Buffer"
    [
      alloc "create";
      c "add_string" [ Written; Read ] R_pure;
      c "add_char" [ Written; Read ] R_pure;
      c "add_buffer" [ Written; Read ] R_pure;
      c "clear" [ Written ] R_pure;
      c "reset" [ Written ] R_pure;
      alloc "contents"; pure "length";
    ];
  register "Queue"
    [
      alloc "create";
      c "push" [ Read; Written ] R_pure;
      c "add" [ Read; Written ] R_pure;
      c "pop" [ Written ] R_view;
      c "take" [ Written ] R_view;
      c "clear" [ Written ] R_pure;
      pure "is_empty"; pure "length";
    ];
  register "Option"
    [
      view "value"; view "get"; view "join";
      c "map" [ Applied; Read ] R_view;
      c "iter" [ Applied; Read ] R_pure;
      c "bind" [ Read; Applied ] R_view;
      c "fold" [ Read; Applied; Read ] R_view;
      pure "is_some"; pure "is_none"; view "to_list";
      alloc "some";
    ];
  register "Result"
    [ view "get_ok"; c "map" [ Applied; Read ] R_view; pure "is_ok";
      pure "is_error" ];
  register "Seq"
    [ c "map" [ Applied; Read ] R_view; c "iter" [ Applied; Read ] R_pure;
      c "filter" [ Applied; Read ] R_view; view "to_list"; view "of_list" ];
  register "Fun"
    [ c "protect" [ Applied; Applied ] R_view; view "id";
      c "flip" [ Applied ] R_view ];
  register "Atomic"
    [
      alloc "make"; view "get";
      c "set" [ Written; Read ] R_pure;
      c "exchange" [ Written; Read ] R_view;
      c "compare_and_set" [ Written; Read; Read ] R_pure;
      c "fetch_and_add" [ Written; Read ] R_pure;
      c "incr" [ Written ] R_pure;
      c "decr" [ Written ] R_pure;
    ];
  register "String"
    [
      pure "length"; pure "get"; pure "unsafe_get"; pure "compare";
      pure "equal"; pure "contains"; pure "sub"; pure "concat";
      pure "uppercase_ascii"; pure "lowercase_ascii";
      pure "capitalize_ascii"; pure "trim"; pure "make"; pure "index_opt";
      pure "split_on_char"; pure "index_from_opt"; pure "starts_with";
      c "iter" [ Applied; Read ] R_pure;
      c "map" [ Applied; Read ] R_pure;
    ];
  register "Bytes"
    [
      c "make" [ Read; Read ] R_alloc;
      c "create" [ Read ] R_alloc;
      pure "length";
      pure "get"; pure "unsafe_get"; pure "get_int64_ne";
      c "set" [ Written_at 1; Read; Read ] R_pure;
      c "unsafe_set" [ Written_at 1; Read; Read ] R_pure;
      c "fill" [ Written; Read; Read; Read ] R_pure;
      c "blit" [ Read; Read; Written; Read; Read ] R_pure;
      alloc "copy"; alloc "sub"; pure "to_string"; alloc "of_string";
      alloc "sub_string";
    ];
  register "Printf"
    [ pure "printf"; pure "eprintf"; pure "sprintf"; pure "fprintf";
      pure "ifprintf"; pure "ksprintf" ];
  register "Format"
    [ pure "printf"; pure "eprintf"; pure "sprintf"; pure "asprintf";
      pure "fprintf" ];
  register "Printexc"
    [ pure "to_string"; pure "get_raw_backtrace"; pure "get_backtrace";
      pure "raise_with_backtrace"; pure "record_backtrace";
      pure "print_raw_backtrace"; pure "raw_backtrace_to_string" ];
  register "Float"
    [ pure "abs"; pure "max"; pure "min"; pure "of_int"; pure "to_int";
      pure "compare"; pure "equal"; pure "is_nan"; pure "classify_float";
      pure "infinity"; pure "nan"; pure "max_float"; pure "pi" ];
  register "Int"
    [ pure "abs"; pure "max"; pure "min"; pure "compare"; pure "equal";
      pure "to_float"; pure "max_int"; pure "min_int" ];
  register "Char"
    [ pure "code"; pure "chr"; pure "unsafe_chr"; pure "lowercase_ascii" ];
  register "Int32"
    [ pure "of_int"; pure "to_int"; pure "add"; pure "sub"; pure "mul";
      pure "logand"; pure "logor"; pure "logxor"; pure "shift_left";
      pure "shift_right"; pure "shift_right_logical"; pure "of_float";
      pure "to_float"; pure "compare"; pure "equal" ];
  register "Int64"
    [ pure "of_int"; pure "to_int"; pure "add"; pure "sub"; pure "mul";
      pure "logand"; pure "logor"; pure "logxor"; pure "shift_left";
      pure "shift_right"; pure "shift_right_logical"; pure "of_float";
      pure "to_float"; pure "compare"; pure "equal" ];
  (* [Random.State] draws mutate the generator they are given — fresh
     per probe in this tree, and a captured one would surface as an
     [Ext] write exactly as it should. *)
  register "Random.State"
    [
      alloc "make"; alloc "make_self_init"; alloc "copy";
      c "int" [ Written; Read ] R_pure;
      c "bool" [ Written ] R_pure;
      c "float" [ Written; Read ] R_pure;
      c "bits" [ Written ] R_pure;
    ];
  register "Sys"
    [ pure "file_exists"; pure "is_directory"; pure "getenv_opt";
      pure "readdir"; pure "getcwd"; pure "time"; pure "word_size" ];
  register "Filename"
    [ pure "concat"; pure "basename"; pure "dirname"; pure "check_suffix";
      pure "remove_extension"; pure "extension"; pure "current_dir_name";
      pure "parent_dir_name" ];
  register "Random"
    [ pure "int"; pure "float"; pure "bool"; pure "self_init"; pure "init" ];
  (* Bigarray slabs (the tape's storage).  [Array1.*] is also
     registered unqualified: tape.ml opens [Bigarray] locally. *)
  List.iter
    (fun prefix ->
      register prefix
        [
          c "create" [ Read; Read; Read ] R_alloc;
          pure "dim";
          pure "get"; pure "unsafe_get";
          c "set" [ Written_at 1; Read; Read ] R_pure;
          c "unsafe_set" [ Written_at 1; Read; Read ] R_pure;
          view "sub";
          c "blit" [ Read; Written ] R_pure;
          c "fill" [ Written; Read ] R_pure;
        ])
    [ "Bigarray.Array1"; "Array1" ];
  (* Domain-local state ([Tape]'s slab pool).  A shard runs wholly on
     one domain, and a domain runs one shard at a time (a nested map may
     run another shard inside it, never beside it), so no two concurrent
     shards ever share a DLS value: what [get] returns is private to the
     shard that reads it, like a fresh allocation, and [set] writes only
     the running domain's slot, which no concurrent shard can read. *)
  register "Domain.DLS"
    [ alloc "new_key"; alloc "get"; c "set" [ Read; Read ] R_pure ];
  register "Stdlib" [];
  (* Unqualified pervasives: operators, conversions, refs. *)
  register ""
    [
      pure "+"; pure "-"; pure "*"; pure "/"; pure "mod"; pure "abs";
      pure "+."; pure "-."; pure "*."; pure "/."; pure "**"; pure "~-.";
      pure "~-"; pure "="; pure "<>"; pure "=="; pure "!="; pure "<";
      pure ">"; pure "<="; pure ">="; pure "&&"; pure "||"; pure "not";
      pure "land"; pure "lor"; pure "lxor"; pure "lsl"; pure "lsr";
      pure "asr"; pure "^"; pure "compare"; pure "min"; pure "max";
      pure "succ"; pure "pred"; pure "ignore"; pure "float_of_int";
      pure "int_of_float"; pure "string_of_int"; pure "string_of_float";
      pure "int_of_string"; pure "float_of_string"; pure "truncate";
      pure "sqrt"; pure "exp"; pure "log"; pure "log10"; pure "sin";
      pure "cos"; pure "tan"; pure "atan"; pure "atan2"; pure "cosh";
      pure "sinh"; pure "tanh"; pure "ceil"; pure "floor"; pure "mod_float";
      pure "infinity"; pure "neg_infinity"; pure "nan"; pure "max_float";
      pure "min_float"; pure "epsilon_float"; pure "max_int"; pure "min_int";
      pure "print_string"; pure "print_endline"; pure "print_newline";
      pure "prerr_endline"; pure "print_int"; pure "print_float";
      pure "failwith"; pure "invalid_arg"; pure "raise"; pure "raise_notrace";
      pure "exit"; pure "at_exit";
      view "fst"; view "snd";
      alloc "ref";
      view "!";
      c ":=" [ Written; Read ] R_pure;
      c "incr" [ Written ] R_pure;
      c "decr" [ Written ] R_pure;
      c "@@" [ Applied; Read ] R_view;
      c "|>" [ Read; Applied ] R_view;
      view "@";
      pure "assert";
      pure "__LOC__"; pure "__FILE__"; pure "__LINE__";
    ]

(* Lookup by flattened path.  Qualified names try the full dotted path
   first (so ["Float"; "Array"; "set"] finds "Float.Array.set"), then
   the [Stdlib]-stripped variant. *)
let find (path : string list) : t option =
  let path =
    match path with "Stdlib" :: rest when rest <> [] -> rest | p -> p
  in
  Hashtbl.find_opt table (String.concat "." path)

(* Modules whose internal mutation is the trusted mechanism the
   certification rests on, not a shard write: the sanitizer's own
   recording, and the locks/atomics it and the pool use.  Calls into
   them are treated as [Pure] with an explicit premise recorded by the
   caller.  The pool itself ([Pool.map]/[Pool.init]) is not here — the
   interpreter intercepts it structurally to fire the site hook. *)
let trusted_module = function
  | "Sanitize" | "Scvad_sanitize" | "Mutex" | "Condition" | "Semaphore"
  | "Gc" ->
      true
  | _ -> false
