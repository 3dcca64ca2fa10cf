(* The interprocedural escape/effect analysis: an abstract interpreter
   that inlines the scanned tree from its fan-out entry points.

   Instead of summarizing functions bottom-up (which loses the binding
   between a closure and the environment it captured), the pass
   {e evaluates} every top-level binding of the files that mention the
   pool, inlining resolvable calls as it goes.  Values carry provenance
   roots ({!Effects.root}); whenever evaluation passes a [Pool.map] /
   [Pool.init] application, a hook captures the concrete closure value —
   environment included — that flowed there.  Each captured closure is
   then re-analyzed as a {e shard}: captured state is re-rooted as
   external ([Ext]), its argument becomes the shard datum ([Shard]) or
   the shard index (an affine symbol, {!shard}), and its evaluation
   yields the
   mutable-state footprint the verdicts are computed from.

   Everything the interpreter cannot establish becomes an obligation,
   never a guess: unresolved calls, exhausted budgets, recursion with
   widening provenance.  Resolution it {e can} trust but not see is
   recorded as a named premise (module contract, accessor contract,
   trusted runtime) and surfaced with the proof. *)

module Effects = Effects
module Verdict = Verdict
module Model = Scvad_activity.Model
module Absint = Scvad_activity.Absint

(* ------------------------------------------------------------------ *)
(* Abstract values                                                     *)
(* ------------------------------------------------------------------ *)

type roots = Effects.root list

type value =
  | Pure  (** immediate value with no provenance *)
  | Int of Absint.iexpr
      (** integer affine in the shard index, or a constant; never
          [Iunknown] *)
  | Obj of { o_roots : roots; o_app : bool }
      (** opaque value; [o_app] marks values read off a rooted object,
          applicable under the accessor contract *)
  | Rec of { r_roots : roots; r_fields : (string * value) list }
  | Coll of { c_roots : roots; c_elem : value }
  | Tup of value list
  | Constr of string * value list
  | Clo of closure
  | Fnref of string * string  (** file path, binding name *)
  | Prim of string * Contracts.t
  | Poolfn of string  (** Pool primitive, by member name *)
  | Mod of roots  (** module value: roots are its creation captures *)
  | ModAlias of string list
  | VRef of value ref  (** knot for recursive local bindings *)

and closure = {
  cl_file : string;
  cl_ctx : string;  (** enclosing binding, for reporting *)
  cl_env : (string * value) list;
  cl_expr : Parsetree.expression;
  cl_pending : (Asttypes.arg_label * value) list;
}

let obj r = Obj { o_roots = r; o_app = false }

(* The shard index's symbol: a [Pool.init] shard's argument is
   [Affine (0, [ (shard, 1) ])]. *)
let shard = 0
let unknown = obj []

let union_roots a b =
  List.sort_uniq Effects.compare_root (List.rev_append a b)

(* Names occurring in an expression, as head segments of identifier
   paths.  Over-approximate (pattern bindings are not subtracted, which
   only keeps more environment entries alive); memoized by definition
   site.  Restricting a closure's provenance to the captures its body
   actually names is what keeps an unrelated in-scope binding — the
   pool in scope at [let capture () = …] — out of its footprint. *)
let free_names_memo : (string * int, (string, unit) Hashtbl.t) Hashtbl.t =
  Hashtbl.create 256

let free_names (e : Parsetree.expression) =
  let key =
    ( e.pexp_loc.loc_start.Lexing.pos_fname,
      e.pexp_loc.loc_start.Lexing.pos_cnum )
  in
  match Hashtbl.find_opt free_names_memo key with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 16 in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it ex ->
              (match ex.Parsetree.pexp_desc with
              | Pexp_ident lid -> (
                  match Longident.flatten lid.Location.txt with
                  | head :: _ -> Hashtbl.replace s head ()
                  | [] -> ())
              | _ -> ());
              Ast_iterator.default_iterator.expr it ex);
        }
      in
      it.expr it e;
      Hashtbl.replace free_names_memo key s;
      s

(* Does the env entry [n] matter to a body whose names are [free]?
   [module:P] entries answer for their parameter name; [#]-sentinels
   carry no roots either way. *)
let env_entry_live free n =
  String.length n > 0 && n.[0] = '#'
  ||
  match String.index_opt n ':' with
  | Some i when String.sub n 0 i = "module" ->
      Hashtbl.mem free (String.sub n (i + 1) (String.length n - i - 1))
  | _ -> Hashtbl.mem free n

let rec roots_of = function
  | Pure | Int _ | Fnref _ | Prim _ | Poolfn _ | ModAlias _ -> []
  | Obj o -> o.o_roots
  | Mod r -> r
  | Rec r ->
      List.fold_left
        (fun acc (_, v) -> union_roots acc (roots_of v))
        r.r_roots r.r_fields
  | Coll c -> union_roots c.c_roots (roots_of c.c_elem)
  | Tup vs | Constr (_, vs) ->
      List.fold_left (fun acc v -> union_roots acc (roots_of v)) [] vs
  | Clo c ->
      let free = free_names c.cl_expr in
      let acc =
        List.fold_left
          (fun acc (n, v) ->
            if env_entry_live free n then union_roots acc (roots_of v)
            else acc)
          [] c.cl_env
      in
      union_roots acc (args_roots c.cl_pending)
  | VRef r -> ( match !r with VRef _ -> [] | v -> roots_of v)

(* The roots of a call's arguments. *)
and args_roots args =
  List.fold_left (fun acc (_, v) -> union_roots acc (roots_of v)) [] args

let rec force = function VRef r -> force' !r | v -> v
and force' = function VRef _ -> unknown | v -> force v

(* Structural join.  Mismatched shapes degrade to an opaque value that
   keeps every root; matched shapes join pointwise so record fields
   (e.g. a closure stored in a record) survive a branch merge. *)
let rec join a b =
  match (force a, force b) with
  | Pure, v | v, Pure -> v
  | Int a, Int b when a = b -> Int a
  | (Obj { o_roots = r; o_app } as o), v | v, (Obj { o_roots = r; o_app } as o)
    -> (
      match v with
      | Rec rc -> Rec { rc with r_roots = union_roots rc.r_roots r }
      | Coll c -> Coll { c with c_roots = union_roots c.c_roots r }
      | Clo _ when r = [] -> v
      | Obj b -> Obj { o_roots = union_roots r b.o_roots;
                       o_app = o_app || b.o_app }
      | _ ->
          ignore o;
          Obj { o_roots = union_roots r (roots_of v); o_app })
  | Constr (_, []), (Constr (_, _ :: _) as v)
  | (Constr (_, _ :: _) as v), Constr (_, []) ->
      (* Nullary vs payload constructor (None vs Some f): the payload
         side carries everything the nullary side could — and a match
         evaluates both branches anyway. *)
      v
  | Rec a, Rec b ->
      let fields =
        List.fold_left
          (fun acc (n, v) ->
            match List.assoc_opt n acc with
            | Some v' -> (n, join v v') :: List.remove_assoc n acc
            | None -> (n, v) :: acc)
          a.r_fields b.r_fields
      in
      Rec { r_roots = union_roots a.r_roots b.r_roots; r_fields = fields }
  | Coll a, Coll b ->
      Coll
        {
          c_roots = union_roots a.c_roots b.c_roots;
          c_elem = join a.c_elem b.c_elem;
        }
  | Tup a, Tup b when List.length a = List.length b ->
      Tup (List.map2 join a b)
  | Constr (n, a), Constr (m, b) when n = m && List.length a = List.length b
    ->
      Constr (n, List.map2 join a b)
  | (Clo _ as a), Clo _ -> a
  | Mod a, Mod b -> Mod (union_roots a b)
  | a, b ->
      let r = union_roots (roots_of a) (roots_of b) in
      if r = [] then Pure else obj r

let join_all = function [] -> Pure | v :: vs -> List.fold_left join v vs

(* The element view of a container-ish value: what a [Pool.map] shard
   or a HOF callback receives. *)
let elem_of v =
  match force v with
  | Coll c -> join c.c_elem (obj c.c_roots)
  | Tup vs | Constr (_, vs) -> join_all vs
  | Obj _ as o -> o
  | v -> ( match roots_of v with [] -> Pure | r -> obj r)

(* Re-rooting for shard analysis: enclosing-evaluation [Fresh]/[Shard]
   provenance is shared state from the shard's point of view, and a
   captured affine index is just some integer, not the shard's own. *)
let rec reroot ~who v =
  match v with
  | Pure -> Pure
  | Int _ -> Pure
  | Obj o ->
      Obj { o with o_roots = List.map (reroot_root ~who) o.o_roots }
  | Mod r -> Mod (List.map (reroot_root ~who) r)
  | Rec r ->
      Rec
        {
          r_roots = List.map (reroot_root ~who) r.r_roots;
          r_fields = List.map (fun (n, v) -> (n, reroot ~who:n v)) r.r_fields;
        }
  | Coll c ->
      Coll
        {
          c_roots = List.map (reroot_root ~who) c.c_roots;
          c_elem = reroot ~who c.c_elem;
        }
  | Tup vs -> Tup (List.map (reroot ~who) vs)
  | Constr (n, vs) -> Constr (n, List.map (reroot ~who) vs)
  | Clo c -> Clo (reroot_closure c)
  | Fnref _ | Prim _ | Poolfn _ | ModAlias _ -> v
  | VRef r -> ( match !r with VRef _ -> Pure | v -> reroot ~who v)

and reroot_root ~who = function
  | Effects.Fresh | Effects.Shard -> Effects.Ext ("captured:" ^ who)
  | r -> r

and reroot_closure c =
  {
    c with
    cl_env = List.map (fun (n, v) -> (n, reroot ~who:n v)) c.cl_env;
    cl_pending =
      List.map (fun (l, v) -> (l, reroot ~who:"applied arg" v)) c.cl_pending;
  }

(* ------------------------------------------------------------------ *)
(* Evaluation context                                                  *)
(* ------------------------------------------------------------------ *)

type flow_item = {
  q_site : Verdict.site;
  q_kind : Verdict.site_kind;
  q_clo : closure;
  q_via : string;
}

type ctx = {
  model : Model.tree;
  sites : (string, Verdict.site) Hashtbl.t;
  mutable site_order : string list;  (** site keys, discovery order *)
  mutable queue : flow_item list;
  seen_flows : (string, unit) Hashtbl.t;
  mutable fuel : int;
  mutable writes : Effects.write list;
  mutable obligations : string list;
  mutable premises : string list;
  mutable visiting : (string * roots) list;
  mutable via : string;
  heap : (string * string, value) Hashtbl.t;
      (** weak field heap, keyed by (root, field name): abstract values
          are immutable, so mutable-field stores land here and field
          reads join the entry back in — how [set_program]'s closures
          reach the backward sweep that applies them.  Reset per
          summary (entry or flow), like the write/obligation lists. *)
}

let entry_fuel = 400_000

let obligation ctx msg =
  if not (List.mem msg ctx.obligations) then
    ctx.obligations <- msg :: ctx.obligations

let premise ctx msg =
  if not (List.mem msg ctx.premises) then ctx.premises <- msg :: ctx.premises

(* Weak update: join [v] into the heap entry of every root of [target]
   under [field] (["!elem"] for container elements).  Values that carry
   nothing are not worth storing. *)
let heap_store ctx target ~field v =
  match force v with
  | Pure | Int _ -> ()
  | v ->
      List.iter
        (fun root ->
          let key = (Effects.root_name root, field) in
          match Hashtbl.find_opt ctx.heap key with
          | Some old -> Hashtbl.replace ctx.heap key (join old v)
          | None -> Hashtbl.replace ctx.heap key v)
        (roots_of target)

let heap_read ctx target ~field base =
  List.fold_left
    (fun acc root ->
      match Hashtbl.find_opt ctx.heap (Effects.root_name root, field) with
      | Some v -> join acc v
      | None -> acc)
    base (roots_of target)

let file_of_loc (loc : Location.t) = loc.loc_start.Lexing.pos_fname

let record_write ctx ~loc ~region ~what target =
  match roots_of target with
  | [] ->
      (* Provenance-free target: under the lint-certified absence of
         top-level mutable state in lib/, a value the tracker lost can
         only have passed through immutable bindings. *)
      premise ctx
        "writes to provenance-free values are immutable-binding reads \
         (no-top-level-mutable-state, @lint gate)"
  | rs ->
      List.iter
        (fun root ->
          ctx.writes <-
            {
              Effects.wr_root = root;
              wr_region = region;
              wr_file = file_of_loc loc;
              wr_line = Model.line_of loc;
              wr_what = what;
            }
            :: ctx.writes)
        rs

(* Shallow rendering of a written target for witnesses. *)
let rec expr_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident lid -> String.concat "." (Model.flatten lid.txt)
  | Pexp_field (b, lid) ->
      expr_name b ^ "." ^ Model.last_segment lid.txt
  | Pexp_apply (f, _) -> expr_name f ^ " …"
  | Pexp_constraint (e, _) -> expr_name e
  | _ -> "…"

let pat_name (p : Parsetree.pattern) =
  match Model.binding_name_of p with Some n -> n | None -> "_"

(* ------------------------------------------------------------------ *)
(* Environments and paths                                              *)
(* ------------------------------------------------------------------ *)

let env_find env n = Option.map force (List.assoc_opt n env)
let env_module env n = env_find env ("module:" ^ n)

type target =
  | T_local of value
  | T_binding of string * string  (** file path, binding name *)
  | T_contract of string * Contracts.t
  | T_pool of string
  | T_trusted of string
  | T_modcall of roots
  | T_unknown of string

let starts_with_scvad s =
  String.length s > 6 && String.sub s 0 6 = "Scvad_"

(* Resolve a dotted path against: local env (values and modules), the
   file's aliases, the global stem index, contracts, and the trusted
   runtime — in that order.  [Pool] is intercepted structurally. *)
let rec resolve_path ctx (file : Model.file) env segs =
  match segs with
  | [] -> T_unknown "<empty path>"
  | [ s ] -> (
      match env_find env s with
      | Some v -> T_local v
      | None -> (
          (* Inside a nested module's binding, bare names resolve to
             siblings first: [fresh_var] inside [Counting] means
             [Counting.fresh_var]. *)
          let prefixed =
            match env_find env "#prefix" with
            | Some (Prim (p, _)) when Model.lookup_binding file (p ^ s) <> None
              ->
                Some (p ^ s)
            | _ -> None
          in
          match prefixed with
          | Some name -> T_binding (file.f_path, name)
          | None -> (
              match Model.lookup_binding file s with
              | Some _ -> T_binding (file.f_path, s)
              | None -> (
                  match Contracts.find [ s ] with
                  | Some ct -> T_contract (s, ct)
                  | None -> T_unknown s))))
  | "Stdlib" :: rest -> resolve_path ctx file env rest
  | [ "Scvad_par"; "Pool"; fn ] | [ "Pool"; fn ] -> T_pool fn
  | head :: rest -> (
      match env_module env head with
      | Some (Mod r) -> T_modcall r
      | Some (ModAlias p) -> resolve_path ctx file env (p @ rest)
      | Some _ -> T_unknown (String.concat "." segs)
      | None -> (
          match Hashtbl.find_opt file.f_aliases head with
          | Some p -> resolve_path ctx file env (p @ rest)
          | None ->
              if Contracts.trusted_module head then
                T_trusted (String.concat "." segs)
              else
                let hint_lib, segs' =
                  if starts_with_scvad head && rest <> [] then
                    (Some head, rest)
                  else (None, segs)
                in
                resolve_in_tree ctx file env ?hint_lib segs'))

and resolve_in_tree ctx file env ?hint_lib segs =
  match segs with
  | [] -> T_unknown "<empty path>"
  | [ "Pool"; fn ] -> T_pool fn
  | head :: rest -> (
      let near = Filename.dirname file.f_path in
      match Model.resolve_stem ctx.model ?hint_lib ~near head with
      | Some path -> (
          match Model.file ctx.model path with
          | None -> T_unknown (String.concat "." segs)
          | Some f -> (
              if rest = [] then T_unknown head
              else
                let name = String.concat "." rest in
                match Model.lookup_binding f name with
                | Some _ -> T_binding (path, name)
                | None -> (
                    (* A re-exported alias inside that file, e.g.
                       [Predict.Counting] as [module Counting = …]. *)
                    match (Hashtbl.find_opt f.f_aliases (List.hd rest), rest)
                    with
                    | Some p, _ :: more ->
                        resolve_path ctx f env (p @ more)
                    | _ -> T_unknown (String.concat "." segs))))
      | None -> (
          match Contracts.find segs with
          | Some ct -> T_contract (String.concat "." segs, ct)
          | None ->
              if segs <> [] && Contracts.trusted_module head then
                T_trusted (String.concat "." segs)
              else T_unknown (String.concat "." segs)))

(* Resolution under [open]s: an unresolved path retries under every
   open in scope — expression-level [let open M in …] (as ["#open"]
   sentinels, innermost first), then the file's top-level opens, later
   ones first. *)
let resolve ctx file env segs =
  match resolve_path ctx file env segs with
  | T_unknown _ as base ->
      let opens =
        List.filter_map
          (fun (n, v) ->
            if n = "#open" then
              match v with ModAlias p -> Some p | _ -> None
            else None)
          env
        @ List.rev file.Model.f_opens
      in
      let rec try_opens = function
        | [] -> base
        | p :: rest -> (
            match resolve_path ctx file env (p @ segs) with
            | T_unknown _ -> try_opens rest
            | t -> t)
      in
      try_opens opens
  | t -> t

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

let pure_contract = { Contracts.c_args = []; c_result = Contracts.R_pure }

(* Names whose result is the element of their first argument, not just
   its roots — keeps structure flowing through option/list plumbing. *)
let elem_results =
  [ "Array.get"; "Array.unsafe_get"; "List.hd"; "List.nth"; "Option.get";
    "Option.value"; "!"; "List.find_opt"; "Hashtbl.find";
    "Hashtbl.find_opt"; "Queue.pop"; "Queue.take" ]

let max_via_depth = 4

(* The first pending argument whose label satisfies [p], and the others
   in order. *)
let take_arg p pending =
  let rec go acc = function
    | [] -> None
    | (l, v) :: rest when p l -> Some (v, List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
  in
  go [] pending

(* The environment of a nested module's binding: its bare names resolve
   to siblings first (see [resolve_path]). *)
let prefix_env name =
  match String.rindex_opt name '.' with
  | Some i -> [ ("#prefix", Prim (String.sub name 0 (i + 1), pure_contract)) ]
  | None -> []

let rec eval ctx (file : Model.file) env (e : Parsetree.expression) : value =
  if ctx.fuel <= 0 then unknown
  else begin
    ctx.fuel <- ctx.fuel - 1;
    if ctx.fuel = 0 then
      obligation ctx
        (Printf.sprintf "analysis budget exhausted inside %s" ctx.via);
    match e.pexp_desc with
    | Pexp_ident lid -> eval_ident ctx file env (Model.flatten lid.txt)
    | Pexp_constant (Pconst_integer (s, _)) -> (
        match int_of_string_opt s with
        | Some n -> Int (Absint.Const n)
        | None -> Pure)
    | Pexp_constant _ -> Pure
    | Pexp_let (rf, vbs, body) ->
        let env = eval_bindings ctx file env rf vbs in
        eval ctx file env body
    | Pexp_fun _ | Pexp_function _ ->
        Clo
          {
            cl_file = file.f_path;
            cl_ctx = ctx.via;
            cl_env = env;
            cl_expr = e;
            cl_pending = [];
          }
    | Pexp_apply (fe, args) ->
        let vargs = List.map (fun (l, a) -> (l, eval ctx file env a)) args in
        eval_call ctx file env fe args vargs e.pexp_loc
    | Pexp_match (scrut, cases) ->
        let v = eval ctx file env scrut in
        eval_cases ctx file env v cases
    | Pexp_try (body, cases) ->
        let v = eval ctx file env body in
        join v (eval_cases ctx file env unknown cases)
    | Pexp_tuple es -> Tup (List.map (eval ctx file env) es)
    | Pexp_construct (lid, arg) ->
        let args =
          match arg with None -> [] | Some a -> [ eval ctx file env a ]
        in
        Constr (Model.last_segment lid.txt, args)
    | Pexp_variant (_, arg) ->
        let args =
          match arg with None -> [] | Some a -> [ eval ctx file env a ]
        in
        Constr ("`variant", args)
    | Pexp_record (fields, base) ->
        let base_roots, base_fields =
          match base with
          | None -> ([], [])
          | Some b -> (
              match force (eval ctx file env b) with
              | Rec r -> (r.r_roots, r.r_fields)
              | v -> (roots_of v, []))
        in
        let fields =
          List.map
            (fun (lid, fe) ->
              ( Model.last_segment lid.Location.txt,
                eval ctx file env fe ))
            fields
        in
        let fields =
          List.fold_left
            (fun acc (n, v) ->
              if List.mem_assoc n acc then acc else (n, v) :: acc)
            fields base_fields
        in
        Rec { r_roots = union_roots [ Effects.Fresh ] base_roots;
              r_fields = fields }
    | Pexp_field (be, lid) ->
        let v = force (eval ctx file env be) in
        let fname = Model.last_segment lid.txt in
        let base =
          match v with
          | Rec r -> (
              match List.assoc_opt fname r.r_fields with
              | Some fv -> force fv
              | None -> Obj { o_roots = roots_of v; o_app = true })
          | v -> Obj { o_roots = roots_of v; o_app = true }
        in
        heap_read ctx v ~field:fname base
    | Pexp_setfield (be, lid, ve) ->
        let target = eval ctx file env be in
        let fname = Model.last_segment lid.txt in
        let stored = eval ctx file env ve in
        record_write ctx ~loc:e.pexp_loc ~region:Effects.All
          ~what:(expr_name be ^ "." ^ fname)
          target;
        heap_store ctx target ~field:fname stored;
        Pure
    | Pexp_array es ->
        Coll
          {
            c_roots = [ Effects.Fresh ];
            c_elem = join_all (List.map (eval ctx file env) es);
          }
    | Pexp_ifthenelse (c, t, eo) ->
        let _ = eval ctx file env c in
        let tv = eval ctx file env t in
        let ev =
          match eo with None -> Pure | Some e' -> eval ctx file env e'
        in
        join tv ev
    | Pexp_sequence (a, b) ->
        let _ = eval ctx file env a in
        eval ctx file env b
    | Pexp_while (c, b) ->
        (* One abstract pass covers the loop's write-roots: iteration
           count never changes which roots a body can reach. *)
        let _ = eval ctx file env c in
        let _ = eval ctx file env b in
        Pure
    | Pexp_for (pat, lo, hi, _, b) ->
        let _ = eval ctx file env lo in
        let _ = eval ctx file env hi in
        let env = (pat_name pat, Pure) :: env in
        let _ = eval ctx file env b in
        Pure
    | Pexp_constraint (e', _) -> eval ctx file env e'
    | Pexp_coerce (e', _, _) -> eval ctx file env e'
    | Pexp_assert e' ->
        let _ = eval ctx file env e' in
        Pure
    | Pexp_lazy e' -> eval ctx file env e'
    | Pexp_letmodule (name, mexpr, body) ->
        let mv = eval_module ctx file env mexpr in
        let env =
          match name.txt with
          | Some n -> (("module:" ^ n), mv) :: env
          | None -> env
        in
        eval ctx file env body
    | Pexp_letexception (_, body) -> eval ctx file env body
    | Pexp_open (od, body) ->
        let env =
          match od.popen_expr.pmod_desc with
          | Pmod_ident lid ->
              ("#open", ModAlias (Model.flatten lid.txt)) :: env
          | _ -> env
        in
        eval ctx file env body
    | Pexp_newtype (_, body) -> eval ctx file env body
    | Pexp_pack mexpr ->
        premise ctx
          "module contract: packed modules carry no top-level mutable \
           state (@lint gate)";
        Mod (roots_of (eval_module ctx file env mexpr))
    | Pexp_extension _ | Pexp_unreachable -> Pure
    | Pexp_send (e', _) | Pexp_setinstvar (_, e') ->
        let _ = eval ctx file env e' in
        obligation ctx "object-oriented construct outside the modeled subset";
        unknown
    | Pexp_letop _ ->
        obligation ctx "binding operator outside the modeled subset";
        unknown
    | Pexp_new _ | Pexp_override _ | Pexp_object _ | Pexp_poly _ ->
        obligation ctx "object-oriented construct outside the modeled subset";
        unknown
  end

and eval_bindings ctx file env rf vbs =
  match rf with
  | Asttypes.Nonrecursive ->
      List.fold_left
        (fun env' (vb : Parsetree.value_binding) ->
          let v = eval ctx file env vb.pvb_expr in
          bind_pat ctx file env' vb.pvb_pat v)
        env vbs
  | Asttypes.Recursive ->
      (* Tie the knot with refs so local recursive helpers resolve;
         the reentry guard in [apply_closure] bounds the recursion. *)
      let cells =
        List.map
          (fun (vb : Parsetree.value_binding) ->
            (vb, Model.binding_name_of vb.pvb_pat, ref Pure))
          vbs
      in
      let env' =
        List.fold_left
          (fun env' (_, n, cell) ->
            match n with Some n -> (n, VRef cell) :: env' | None -> env')
          env cells
      in
      List.iter
        (fun ((vb : Parsetree.value_binding), _, cell) ->
          cell := eval ctx file env' vb.pvb_expr)
        cells;
      env'

(* Lenient pattern binding: when the scrutinee's shape does not match
   the pattern (an abstract [Obj] against [Some x], say), every
   variable the pattern binds receives the scrutinee itself, so
   provenance is never dropped on a destructuring the interpreter
   could not follow precisely. *)
and bind_pat ctx file env (p : Parsetree.pattern) v =
  match p.ppat_desc with
  | Ppat_any | Ppat_constant _ | Ppat_interval _ | Ppat_type _ -> env
  | Ppat_var n -> (n.txt, v) :: env
  | Ppat_alias (p', n) -> (n.txt, v) :: bind_pat ctx file env p' v
  | Ppat_constraint (p', _) -> bind_pat ctx file env p' v
  | Ppat_lazy p' | Ppat_exception p' | Ppat_open (_, p') ->
      bind_pat ctx file env p' v
  | Ppat_tuple ps -> (
      match force v with
      | Tup vs when List.length vs = List.length ps ->
          List.fold_left2 (bind_pat ctx file) env ps vs
      | _ -> List.fold_left (fun env p' -> bind_pat ctx file env p' v) env ps)
  | Ppat_construct (_, None) -> env
  | Ppat_construct (_, Some (_, p')) -> (
      match force v with
      | Constr (_, [ a ]) -> bind_pat ctx file env p' a
      | Constr (_, (_ :: _ as vs)) -> bind_pat ctx file env p' (Tup vs)
      | _ -> bind_pat ctx file env p' v)
  | Ppat_variant (_, None) -> env
  | Ppat_variant (_, Some p') -> (
      match force v with
      | Constr (_, [ a ]) -> bind_pat ctx file env p' a
      | _ -> bind_pat ctx file env p' v)
  | Ppat_record (fields, _) ->
      List.fold_left
        (fun env (lid, p') ->
          let fname = Model.last_segment lid.Location.txt in
          let fv =
            match force v with
            | Rec r -> (
                match List.assoc_opt fname r.r_fields with
                | Some fv -> force fv
                | None -> Obj { o_roots = roots_of v; o_app = true })
            | _ -> Obj { o_roots = roots_of v; o_app = true }
          in
          bind_pat ctx file env p' fv)
        env fields
  | Ppat_array ps ->
      let ev = elem_of v in
      List.fold_left (fun env p' -> bind_pat ctx file env p' ev) env ps
  | Ppat_or (a, b) ->
      bind_pat ctx file (bind_pat ctx file env a v) b v
  | Ppat_unpack n -> (
      premise ctx
        "module contract: packed modules carry no top-level mutable \
         state (@lint gate)";
      match n.txt with
      | Some m -> (("module:" ^ m), Mod []) :: env
      | None -> env)
  | Ppat_extension _ -> env

and eval_cases ctx file env v cases =
  join_all
    (List.map
       (fun (c : Parsetree.case) ->
         let env' = bind_pat ctx file env c.pc_lhs v in
         (match c.pc_guard with
         | Some g -> ignore (eval ctx file env' g)
         | None -> ());
         eval ctx file env' c.pc_rhs)
       cases)

and eval_ident ctx file env segs =
  match resolve ctx file env segs with
  | T_local v -> v
  | T_binding (path, name) -> (
      match Model.file ctx.model path with
      | None -> unknown
      | Some f -> (
          match Model.lookup_binding f name with
          | Some e
            when match e.pexp_desc with
                 | Pexp_fun _ | Pexp_function _ -> true
                 | _ -> false ->
              Fnref (path, name)
          | Some _ -> force_binding ctx path name
          | None -> unknown))
  | T_contract (name, ct) -> Prim (name, ct)
  | T_pool fn -> Poolfn fn
  | T_trusted _ -> Prim ("trusted", pure_contract)
  | T_modcall r -> Obj { o_roots = r; o_app = true }
  | T_unknown _ ->
      (* An unresolved read: immutable under the lint-certified absence
         of top-level mutable state, so it carries no roots.  Only an
         unresolved {e call} becomes an obligation. *)
      unknown

(* Evaluate a non-function top-level binding on demand. *)
and force_binding ctx path name =
  match Model.file ctx.model path with
  | None -> unknown
  | Some f -> (
      match Model.lookup_binding f name with
      | None -> unknown
      | Some e ->
          let key = path ^ "#" ^ name in
          if List.mem_assoc key ctx.visiting then unknown
          else begin
            ctx.visiting <- (key, []) :: ctx.visiting;
            let v = eval ctx f (prefix_env name) e in
            ctx.visiting <- List.remove_assoc key ctx.visiting;
            v
          end)

and eval_module ctx file env (m : Parsetree.module_expr) : value =
  match m.pmod_desc with
  | Pmod_ident lid -> (
      let segs = Model.flatten lid.txt in
      match segs with
      | [ s ] -> (
          match env_module env s with
          | Some v -> v
          | None -> (
              match Hashtbl.find_opt file.f_aliases s with
              | Some p -> ModAlias p
              | None -> ModAlias segs))
      | head :: rest -> (
          match env_module env head with
          | Some (ModAlias p) -> ModAlias (p @ rest)
          | Some (Mod r) -> Mod r
          | _ -> (
              match Hashtbl.find_opt file.f_aliases head with
              | Some p -> ModAlias (p @ rest)
              | None -> ModAlias segs))
      | [] -> Mod [])
  | Pmod_structure items ->
      let roots = ref [] in
      List.iter
        (fun (it : Parsetree.structure_item) ->
          match it.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun (vb : Parsetree.value_binding) ->
                  roots :=
                    union_roots !roots
                      (roots_of (eval ctx file env vb.pvb_expr)))
                vbs
          | _ -> ())
        items;
      Mod !roots
  | Pmod_apply (fe, ae) ->
      premise ctx
        "module contract: a functor instance's mutable state is its \
         argument captures (@lint gate)";
      let fr = roots_of (eval_module ctx file env fe) in
      let ar = roots_of (eval_module ctx file env ae) in
      Mod (union_roots fr ar)
  | Pmod_constraint (m', _) -> eval_module ctx file env m'
  | Pmod_unpack e ->
      premise ctx
        "module contract: packed modules carry no top-level mutable \
         state (@lint gate)";
      ignore (eval ctx file env e);
      Mod []
  | Pmod_functor _ -> Mod []
  | Pmod_apply_unit m' -> eval_module ctx file env m'
  | Pmod_extension _ -> Mod []

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

and eval_call ctx file env fe syn_args vargs loc =
  match fe.Parsetree.pexp_desc with
  | Pexp_ident lid -> (
      let segs = Model.flatten lid.txt in
      match resolve ctx file env segs with
      | T_local v -> apply_value ~loc ctx file env v vargs
      | T_binding (path, name) -> apply_fnref ctx path name vargs
      | T_contract (name, ct) ->
          contract_call ctx file env name ct syn_args vargs loc
      | T_pool fn -> pool_call ctx file env fn vargs loc
      | T_trusted p ->
          premise ctx
            (Printf.sprintf
               "trusted runtime: %s mutates only its own internal state"
               p);
          Pure
      | T_modcall r ->
          module_call ctx file ~path:(String.concat "." segs) r vargs
      | T_unknown p ->
          obligation ctx (Printf.sprintf "unresolved call to %s" p);
          obj (args_roots vargs))
  | _ ->
      let f = eval ctx file env fe in
      apply_value ~loc ctx file env f vargs

and apply_value ?(loc = Location.none) ctx file env f args =
  match force f with
  | Clo c -> apply_closure ctx c args
  | Fnref (path, name) -> apply_fnref ctx path name args
  | Prim ("trusted", _) ->
      premise ctx "trusted runtime: mutates only its own internal state";
      Pure
  | Prim (name, ct) ->
      contract_call ctx file env name ct [] args Location.none
  | Poolfn fn -> pool_call ctx file env fn args Location.none
  | Obj { o_roots = r; o_app = _ } ->
      (* Accessor contract: a function value whose provenance is rooted
         in [r] captures at most [r], so a call writes at most [r] plus
         its arguments and fresh allocations — there is no top-level
         mutable state for it to reach (@lint gate). *)
      premise ctx
        "accessor contract: functions read from a value write only that \
         value's state and fresh allocations";
      List.iter
        (fun (_, a) ->
          match force a with
          | Clo _ | Fnref _ ->
              ignore (apply_value ctx file env a [ (Asttypes.Nolabel, obj r) ])
          | _ -> ())
        args;
      if r <> [] then
        record_write ctx ~loc ~region:Effects.All
          ~what:"accessor application" (obj r);
      Obj { o_roots = r; o_app = true }
  | Mod _ ->
      obligation ctx "application of a module value outside the modeled subset";
      unknown
  | v ->
      let shape =
        match v with
        | Constr (n, _) -> "constructor " ^ n
        | Tup _ -> "tuple"
        | Coll _ -> "collection"
        | Rec _ -> "record"
        | Pure -> "immediate"
        | Int _ -> "integer"
        | _ -> "opaque"
      in
      let where =
        if loc = Location.none then ctx.via
        else Printf.sprintf "%s (%s:%d)" ctx.via (file_of_loc loc)
            (Model.line_of loc)
      in
      obligation ctx
        (Printf.sprintf "call through an untracked %s value in %s" shape
           where);
      obj
        (List.fold_left
           (fun acc (_, a) -> union_roots acc (roots_of a))
           (roots_of v) args)

and apply_fnref ctx path name args =
  match Model.file ctx.model path with
  | None -> unknown
  | Some f -> (
      match Model.lookup_binding f name with
      | None -> unknown
      | Some expr -> (
          match expr.pexp_desc with
          | Pexp_fun _ | Pexp_function _ ->
              let key = path ^ "#" ^ name in
              let arg_roots = args_roots args in
              (match List.assoc_opt key ctx.visiting with
              | Some seen ->
                  if
                    List.for_all
                      (fun r -> List.mem r seen)
                      arg_roots
                  then obj arg_roots
                  else begin
                    obligation ctx
                      (Printf.sprintf
                         "recursive call to %s with widening provenance"
                         name);
                    obj arg_roots
                  end
              | None ->
                  ctx.visiting <- (key, arg_roots) :: ctx.visiting;
                  let v =
                    apply_closure ctx
                      {
                        cl_file = path;
                        cl_ctx = name;
                        cl_env = prefix_env name;
                        cl_expr = expr;
                        cl_pending = [];
                      }
                      args
                  in
                  ctx.visiting <- List.remove_assoc key ctx.visiting;
                  v)
          | _ ->
              let v = force_binding ctx path name in
              if args = [] then v
              else
                let file' =
                  Option.value (Model.file ctx.model path) ~default:f
                in
                apply_value ctx file' [] v args))

and apply_closure ctx (c : closure) args =
  let file =
    match Model.file ctx.model c.cl_file with
    | Some f -> f
    | None ->
        (* Closures always come from a scanned file; a miss means the
           model was rebuilt underneath us. *)
        raise Not_found
  in
  let key =
    Printf.sprintf "%s@%d:%d" c.cl_file
      c.cl_expr.pexp_loc.loc_start.Lexing.pos_lnum
      c.cl_expr.pexp_loc.loc_start.Lexing.pos_cnum
  in
  if List.mem_assoc key ctx.visiting then
    (* Reentrant application of the same closure: the outer activation
       already collects the body's writes. *)
    obj (args_roots args)
  else begin
    ctx.visiting <- (key, []) :: ctx.visiting;
    let v = consume ctx file c.cl_env c.cl_expr (c.cl_pending @ args) c in
    ctx.visiting <- List.remove_assoc key ctx.visiting;
    v
  end

(* Walk the parameter spine, consuming pending arguments by label.
   Unsupplied optional parameters take their defaults; exhausted
   arguments yield a partial-application closure. *)
and consume ctx file env (e : Parsetree.expression) pending (orig : closure) =
  match e.pexp_desc with
  | Pexp_newtype (_, body) -> consume ctx file env body pending orig
  | Pexp_fun (lbl, default, pat, body) -> (
      let take_label name =
        take_arg
          (fun l -> l = Asttypes.Labelled name || l = Asttypes.Optional name)
          pending
      in
      let take_positional () = take_arg (( = ) Asttypes.Nolabel) pending in
      match lbl with
      | Asttypes.Optional name -> (
          match take_label name with
          | Some (v, rest) ->
              (* A [?l:expr] argument passes the option itself; a [~l]
                 argument the payload — lenient matching absorbs both. *)
              consume ctx file (bind_pat ctx file env pat v) body rest orig
          | None ->
              if pending = [] then
                Clo { orig with cl_env = env; cl_expr = e; cl_pending = [] }
              else
                let dv =
                  match default with
                  | Some d -> eval ctx file env d
                  | None -> Constr ("None", [])
                in
                consume ctx file (bind_pat ctx file env pat dv) body pending
                  orig)
      | Asttypes.Labelled name -> (
          match take_label name with
          | Some (v, rest) ->
              consume ctx file (bind_pat ctx file env pat v) body rest orig
          | None -> (
              match take_positional () with
              | Some (v, rest) ->
                  consume ctx file (bind_pat ctx file env pat v) body rest
                    orig
              | None ->
                  Clo { orig with cl_env = env; cl_expr = e; cl_pending = [] }
              ))
      | Asttypes.Nolabel -> (
          match take_positional () with
          | Some (v, rest) ->
              consume ctx file (bind_pat ctx file env pat v) body rest orig
          | None ->
              Clo
                { orig with cl_env = env; cl_expr = e; cl_pending = pending }
          ))
  | Pexp_function cases -> (
      match take_arg (( = ) Asttypes.Nolabel) pending with
      | None -> Clo { orig with cl_env = env; cl_expr = e; cl_pending = pending }
      | Some (v, rest) ->
          let r = eval_cases ctx file env v cases in
          if rest = [] then r else apply_value ctx file env r rest)
  | _ ->
      let r = eval ctx file env e in
      if pending = [] then r else apply_value ctx file env r pending

(* Contract-mediated call: record writes at [Written] positions (with
   an affine region when the index argument is index-affine), re-enter
   [Applied] closures, and shape the result. *)
and contract_call ctx file env name (ct : Contracts.t) syn_args vargs loc =
  (* Index-affine arithmetic keeps [Int] flowing through address
     computations like [2 * i + 1]. *)
  let arith () =
    let int = function Absint.Iunknown -> None | ie -> Some (Int ie) in
    match (name, List.map (fun (_, v) -> force v) vargs) with
    | "+", [ Int a; Int b ] -> int (Absint.iadd a b)
    | "-", [ Int a; Int b ] -> int (Absint.isub a b)
    | "*", [ Int a; Int b ] -> int (Absint.imul a b)
    | "succ", [ Int a ] -> int (Absint.iadd a (Absint.Const 1))
    | "pred", [ Int a ] -> int (Absint.isub a (Absint.Const 1))
    | _ -> None
  in
  match arith () with
  | Some v -> v
  | None ->
      let nth_value i =
        match List.nth_opt vargs i with
        | Some (_, v) -> Some v
        | None -> None
      in
      let nth_syn i =
        match List.nth_opt syn_args i with
        | Some (_, e) -> expr_name e
        | None -> "…"
      in
      List.iteri
        (fun i (_, v) ->
          match Contracts.arg_use ct i with
          | Contracts.Read | Contracts.Applied -> ()
          | Contracts.Written ->
              record_write ctx ~loc ~region:Effects.All
                ~what:(name ^ " " ^ nth_syn i) v
          | Contracts.Written_at j ->
              let region =
                match Option.map force (nth_value j) with
                | Some (Int (Absint.Const offset)) ->
                    Effects.Affine { scale = 0; offset }
                | Some (Int (Absint.Affine (offset, [ (_, scale) ]))) ->
                    Effects.Affine { scale; offset }
                | _ -> Effects.All
              in
              record_write ctx ~loc ~region ~what:(name ^ " " ^ nth_syn i) v)
        vargs;
      (* Element stores: a value deposited into a written container
         ([Array.set snaps s (Some cap)]) must reach later element
         reads, so it goes to the heap under the target's roots. *)
      List.iteri
        (fun i (_, target) ->
          match Contracts.arg_use ct i with
          | Contracts.Written | Contracts.Written_at _ ->
              List.iteri
                (fun j (_, v) ->
                  match Contracts.arg_use ct j with
                  | Contracts.Read when j <> i ->
                      heap_store ctx target ~field:"!elem" v
                  | _ -> ())
                vargs
          | _ -> ())
        vargs;
      (* Opaque element the callee feeds its callbacks. *)
      let op_arg =
        join_all
          (List.filter_map
             (fun (i, (_, v)) ->
               match Contracts.arg_use ct i with
               | Contracts.Applied -> None
               | _ -> Some (elem_of v))
             (List.mapi (fun i a -> (i, a)) vargs))
      in
      let applied =
        List.filter_map
          (fun (i, (_, v)) ->
            match (Contracts.arg_use ct i, force v) with
            | Contracts.Applied, (Clo _ | Fnref _ | Prim _) ->
                let r =
                  ref (apply_value ctx file env v [ (Asttypes.Nolabel, op_arg) ])
                in
                let budget = ref 2 in
                let continue_ = ref true in
                while !continue_ && !budget > 0 do
                  match force !r with
                  | Clo { cl_expr = { pexp_desc = Pexp_fun _ | Pexp_function _;
                                      _ };
                          _ } ->
                      r :=
                        apply_value ctx file env !r
                          [ (Asttypes.Nolabel, op_arg) ];
                      decr budget
                  | _ -> continue_ := false
                done;
                Some !r
            | _ -> None)
          (List.mapi (fun i a -> (i, a)) vargs)
      in
      let arg_roots = args_roots vargs in
      let base =
        match ct.Contracts.c_result with
        | Contracts.R_pure -> Pure
        | Contracts.R_view ->
            if List.mem name elem_results then
              match vargs with
              | (_, v) :: _ ->
                  (* Element reads join the heap: a closure stored by
                     [Array.set snaps s (Some cap)] resurfaces here. *)
                  heap_read ctx v ~field:"!elem" (elem_of v)
              | [] -> Pure
            else if arg_roots = [] then Pure
            else obj arg_roots
        | Contracts.R_alloc ->
            (* Elements of a fresh container come from the data
               arguments; an [Applied] closure contributes its results
               (joined below), not itself. *)
            Coll
              {
                c_roots = [ Effects.Fresh ];
                c_elem =
                  join_all
                    (List.filteri
                       (fun i _ -> Contracts.arg_use ct i <> Contracts.Applied)
                       vargs
                    |> List.map (fun (_, v) -> elem_of v));
              }
      in
      join_all (base :: applied)

(* The module contract, for calls through module values the scanned
   tree cannot resolve (functor instances over first-class modules):
   such a call may write its arguments and the module's creation
   captures, and returns a value rooted in all of them plus fresh
   allocations.  Justified by the lint-certified absence of top-level
   mutable state: a module function has nothing else to reach. *)
and module_call ctx file ~path r vargs =
  premise ctx
    "module contract: module functions write state reachable from their \
     positional arguments and creation captures; labelled arguments are \
     control scalars (@lint gate, sanitizer-falsified)";
  let arg_roots =
    List.fold_left
      (fun acc (l, v) ->
        match l with
        | Asttypes.Nolabel -> union_roots acc (roots_of v)
        | Asttypes.Labelled _ | Asttypes.Optional _ -> acc)
      [] vargs
  in
  let touched = union_roots r arg_roots in
  if touched <> [] then
    record_write ctx ~loc:Location.none ~region:Effects.All
      ~what:("call " ^ path) (obj touched);
  List.iter
    (fun (_, v) ->
      match force v with
      | Clo _ | Fnref _ ->
          ignore
            (apply_value ctx file [] v [ (Asttypes.Nolabel, obj touched) ])
      | _ -> ())
    vargs;
  Obj { o_roots = union_roots [ Effects.Fresh ] touched; o_app = true }

(* ------------------------------------------------------------------ *)
(* Pool primitives and the site hook                                   *)
(* ------------------------------------------------------------------ *)

and pool_call ctx file env fn vargs loc =
  let nolabels = List.filter_map
      (fun (l, v) -> if l = Asttypes.Nolabel then Some v else None)
      vargs
  in
  let record_flow kind f =
    match force f with
    | Clo c -> add_flow ctx ~loc ~kind c
    | Fnref (path, name) -> (
        match
          Option.bind (Model.file ctx.model path) (fun fl ->
              Model.lookup_binding fl name)
        with
        | Some e ->
            add_flow ctx ~loc ~kind
              { cl_file = path; cl_ctx = name; cl_env = []; cl_expr = e;
                cl_pending = [] }
        | _ -> ())
    | _ ->
        (* An abstract closure (an opaque parameter): this evaluation is
           a generic helper context; concrete flows reach the same site
           from the helper's callers. *)
        ()
  in
  match fn with
  | "map" -> (
      match nolabels with
      | _pool :: f :: rest ->
          record_flow Verdict.Map f;
          let elem =
            match rest with x :: _ -> elem_of x | [] -> Pure
          in
          let r = apply_value ctx file env f [ (Asttypes.Nolabel, elem) ] in
          Coll { c_roots = [ Effects.Fresh ]; c_elem = r }
      | _ -> unknown)
  | "init" -> (
      match nolabels with
      | _pool :: _n :: f :: _ ->
          record_flow Verdict.Init f;
          let r = apply_value ctx file env f [ (Asttypes.Nolabel, Pure) ] in
          Coll { c_roots = [ Effects.Fresh ]; c_elem = r }
      | _ -> unknown)
  | "with_pool" -> (
      let f =
        List.find_opt
          (fun v -> match force v with Clo _ | Fnref _ -> true | _ -> false)
          nolabels
      in
      match f with
      | Some f ->
          apply_value ctx file env f
            [ (Asttypes.Nolabel, obj [ Effects.Ext "pool" ]) ]
      | None -> Pure)
  | _ -> Pure

and add_flow ctx ~loc ~kind (c : closure) =
  let sfile = file_of_loc loc and sline = Model.line_of loc in
  let key = Printf.sprintf "%s:%d" sfile sline in
  let site =
    match Hashtbl.find_opt ctx.sites key with
    | Some s -> s
    | None ->
        let s =
          { Verdict.st_file = sfile; st_line = sline; st_kind = kind;
            st_context = ctx.via }
        in
        Hashtbl.replace ctx.sites key s;
        ctx.site_order <- ctx.site_order @ [ key ];
        s
  in
  let def_line = c.cl_expr.pexp_loc.loc_start.Lexing.pos_lnum in
  let fkey =
    Printf.sprintf "%s|%s:%d|%s" (Verdict.site_key site) c.cl_file def_line
      ctx.via
  in
  let depth =
    List.length (String.split_on_char '>' ctx.via) - 1
  in
  if (not (Hashtbl.mem ctx.seen_flows fkey)) && depth <= max_via_depth then begin
    Hashtbl.replace ctx.seen_flows fkey ();
    ctx.queue <-
      ctx.queue @ [ { q_site = site; q_kind = kind; q_clo = c; q_via = ctx.via } ]
  end

(* ------------------------------------------------------------------ *)
(* Syntactic site discovery                                            *)
(* ------------------------------------------------------------------ *)

(* Every textual [Pool.map]/[Pool.init] application in the scanned
   tree, independent of whether any evaluation reaches it: the gate
   requires all of them classified, so an unreachable or unreached site
   must surface as [Unknown], not vanish. *)
let scan_sites model ctx =
  Hashtbl.iter
    (fun _ (f : Model.file) ->
      let context = ref "" in
      let expr_iter (it : Ast_iterator.iterator) (e : Parsetree.expression) =
        (match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, _) -> (
            let segs = Model.flatten lid.txt in
            let segs =
              match segs with
              | head :: rest -> (
                  match Hashtbl.find_opt f.f_aliases head with
                  | Some p -> p @ rest
                  | None -> segs)
              | [] -> segs
            in
            match segs with
            | [ "Scvad_par"; "Pool"; ("map" | "init") ]
            | [ "Pool"; ("map" | "init") ] ->
                let kind =
                  if List.exists (( = ) "init") segs then Verdict.Init
                  else Verdict.Map
                in
                let key =
                  Printf.sprintf "%s:%d" (file_of_loc e.pexp_loc)
                    (Model.line_of e.pexp_loc)
                in
                if not (Hashtbl.mem ctx.sites key) then begin
                  Hashtbl.replace ctx.sites key
                    {
                      Verdict.st_file = file_of_loc e.pexp_loc;
                      st_line = Model.line_of e.pexp_loc;
                      st_kind = kind;
                      st_context = !context;
                    };
                  ctx.site_order <- ctx.site_order @ [ key ]
                end
            | _ -> ())
        | _ -> ());
        Ast_iterator.default_iterator.expr it e
      in
      let iter = { Ast_iterator.default_iterator with expr = expr_iter } in
      List.iter
        (fun name ->
          context := name;
          match Hashtbl.find_opt f.f_bindings name with
          | Some e -> iter.expr iter e
          | None -> ())
        f.f_order)
    model.Model.files

(* ------------------------------------------------------------------ *)
(* Driving: entries, then the flow queue                               *)
(* ------------------------------------------------------------------ *)

type analyzed_flow = {
  a_site : Verdict.site;
  a_kind : Verdict.site_kind;
  a_flow : Verdict.flow;
}

type result = {
  sites : Verdict.site list;  (** discovery order *)
  flows : analyzed_flow list;
}

(* Does [s] contain [needle]?  Compares in place: no substring is
   allocated per offset. *)
let mentions needle s =
  let nl = String.length needle and sl = String.length s in
  let rec matches i k = k = nl || (s.[i + k] = needle.[k] && matches i (k + 1)) in
  let rec go i = i + nl <= sl && (matches i 0 || go (i + 1)) in
  go 0

(* The files whose text mentions ["Pool."]: their bindings are the
   entries the flows start from. *)
let entry_files model =
  Hashtbl.fold
    (fun _ (f : Model.file) acc ->
      if mentions "Pool." f.f_source then f :: acc else acc)
    model.Model.files []
  |> List.sort (fun (a : Model.file) b -> compare a.f_path b.f_path)

(* Apply an entry function to opaque, externally-rooted arguments. *)
let entry_args (e : Parsetree.expression) =
  let rec go acc (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_newtype (_, body) -> go acc body
    | Pexp_fun (Asttypes.Optional _, _, _, body) -> go acc body
    | Pexp_fun (lbl, _, pat, body) ->
        let name = pat_name pat in
        go ((lbl, obj [ Effects.Ext ("param:" ^ name) ]) :: acc) body
    | Pexp_function _ ->
        (Asttypes.Nolabel, obj [ Effects.Ext "param:arg" ]) :: acc
    | _ -> acc
  in
  List.rev (go [] e)

let reset_summary ctx =
  ctx.fuel <- entry_fuel;
  ctx.writes <- [];
  ctx.obligations <- [];
  ctx.premises <- [];
  ctx.visiting <- [];
  Hashtbl.reset ctx.heap

let summary_of ctx =
  {
    Effects.sm_writes = Effects.dedup_writes ctx.writes;
    sm_obligations = Effects.dedup_strings ctx.obligations;
    sm_premises = Effects.dedup_strings ctx.premises;
  }

let analyze_flow ctx (fl : flow_item) =
  reset_summary ctx;
  ctx.via <- fl.q_via ^ ">" ^ fl.q_site.Verdict.st_context;
  let c = reroot_closure fl.q_clo in
  let arg =
    match fl.q_kind with
    | Verdict.Map -> Obj { o_roots = [ Effects.Shard ]; o_app = false }
    | Verdict.Init -> Int (Absint.Affine (0, [ (shard, 1) ]))
  in
  (try ignore (apply_closure ctx c [ (Asttypes.Nolabel, arg) ])
   with Not_found | Stack_overflow ->
     obligation ctx "shard closure evaluation failed");
  {
    a_site = fl.q_site;
    a_kind = fl.q_kind;
    a_flow =
      {
        Verdict.fl_def_file = fl.q_clo.cl_file;
        fl_def_line = fl.q_clo.cl_expr.pexp_loc.loc_start.Lexing.pos_lnum;
        fl_via = fl.q_via;
        fl_summary = summary_of ctx;
      };
  }

let run model =
  let ctx =
    {
      model;
      sites = Hashtbl.create 16;
      site_order = [];
      queue = [];
      seen_flows = Hashtbl.create 64;
      heap = Hashtbl.create 64;
      fuel = entry_fuel;
      writes = [];
      obligations = [];
      premises = [];
      visiting = [];
      via = "";
    }
  in
  scan_sites model ctx;
  List.iter
    (fun (f : Model.file) ->
      List.iter
        (fun name ->
          match Hashtbl.find_opt f.f_bindings name with
          | Some e -> (
              reset_summary ctx;
              ctx.via <- name;
              try
                match e.pexp_desc with
                | Pexp_fun _ | Pexp_function _ ->
                    ignore (apply_fnref ctx f.f_path name (entry_args e))
                | _ -> ignore (eval ctx f [] e)
              with Not_found | Stack_overflow -> ())
          | None -> ())
        f.f_order)
    (entry_files model);
  let flows = ref [] in
  let guard = ref 0 in
  let rec drain () =
    match ctx.queue with
    | [] -> ()
    | fl :: rest when !guard < 256 ->
        incr guard;
        ctx.queue <- rest;
        flows := analyze_flow ctx fl :: !flows;
        drain ()
    | _ -> ()
  in
  drain ();
  {
    sites =
      List.filter_map (Hashtbl.find_opt ctx.sites) ctx.site_order;
    flows = List.rev !flows;
  }
