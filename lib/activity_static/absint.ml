(* Conservative abstract interpretation of one kernel's post-checkpoint
   cone — [run] followed by [output] — over the extracted {!Model}.

   One walk computes the facts of two analyses side by side, a product
   domain over one value shape.  The activity facts:

   - a per-field *first-effect* status (the kill-before-read lattice):
     [Untouched] (never observed), [Killed] (fully overwritten before
     any read — EP's [buffer] under [vranlc]), [Mayread] (a read may
     observe the checkpointed value).  Branches join pessimistically
     and loop bodies are conservative about zero-trip execution, so
     [Killed]/[Untouched] are *proofs* of non-consumption;
   - a flow-insensitive dependence edge graph between state fields and
     the synthetic [@output] sink, whose backward closure is the
     may-influence set;
   - per-field read *footprints*: every array read resolved to an index
     expression affine in constant-range loop counters, or [Top] when
     any read is unresolvable (data-dependent subscripts, unknown
     bounds).

   The escape facts (the guard's question: can this value reach the
   output through NON-SMOOTH dataflow?):

   - every flow of field taint into a discrete consumer — a branch or
     loop predicate, an integer conversion, an array subscript, a
     comparison, a kink — recorded as an {!Escapes.site} with the
     tainting fields, closed over the write-edge graph so a taint
     laundered through another field still names its source;
   - a leak set: fields whose taint flowed into code the pass cannot
     see (an unknown callee, an untracked structure holding an array).

   The components differ in two places.  Where a value escapes into an
   untracked structure (tuple, record, constructor), activity consumes
   it whole while the escape side leaks only array handles and the
   state record.  And calls through a non-[Scalar.S] functor parameter
   (IS's [O : INT_OPS]) are unknown calls to the activity side but are
   resolved against the first in-file definition for the escape side,
   whose bodies carry the real escape sites: there the walk runs both
   callee treatments, each recording only its own component's facts
   (see {!split}).

   A loop body is walked again until a pass records nothing new and
   moves no cell older than the pass, at most [loop_passes] times (see
   {!interp_loop}).

   Everything unrecognized degrades toward [Mayread]/[Top]/more edges
   and more escapes/leaks, never the other way; {!Incomplete} aborts
   the whole app when even that is impossible (missing [run]/[output],
   fuel exhaustion). *)

open Parsetree
module SS = Set.Make (String)
module SM = Map.Make (String)

exception Incomplete of string

type feffect = Untouched | Killed | Mayread

let feffect_name = function
  | Untouched -> "untouched"
  | Killed -> "killed"
  | Mayread -> "may-read"

(* A resolved affine read site: base + Σ coeff·v over loop counters
   with inclusive ranges. *)
type site = { s_base : int; s_terms : (int * int * int) list }

type footprint = Sites of site list | Top

module Site_set = Set.Make (struct
  type t = site

  let compare = compare
end)

(* ---- abstract values ------------------------------------------------- *)

type iexpr =
  | Const of int
  | Affine of int * (int * int) list  (* base, (loop-var id, coeff) *)
  | Iunknown

type value = { taint : SS.t; sh : shape; ie : iexpr }

and shape =
  | Scalar_sh
  | Field_arr of string
  | Local_arr of cell
  | State_sh
  | Ref_sh of cell
  | Closure_sh of closure

and cell = { mutable c_val : value; c_born : int }

and closure = {
  cl_params : (Asttypes.arg_label * pattern) list;
  cl_body : expression;
  cl_env : value SM.t;
  cl_rec : string option;
}

let opaque = { taint = SS.empty; sh = Scalar_sh; ie = Iunknown }
let scalar ?(ie = Iunknown) taint = { taint; sh = Scalar_sh; ie }
let closure_value c = { taint = SS.empty; sh = Closure_sh c; ie = Iunknown }

(* ---- affine arithmetic ----------------------------------------------- *)

let norm_terms terms =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (id, c) ->
      let prev = match Hashtbl.find_opt tbl id with Some p -> p | None -> 0 in
      Hashtbl.replace tbl id (prev + c))
    terms;
  Hashtbl.fold (fun id c acc -> if c = 0 then acc else (id, c) :: acc) tbl []
  |> List.sort compare

let iadd a b =
  match (a, b) with
  | Const x, Const y -> Const (x + y)
  | Const x, Affine (base, ts) | Affine (base, ts), Const x ->
      Affine (base + x, ts)
  | Affine (b1, t1), Affine (b2, t2) -> (
      match norm_terms (t1 @ t2) with
      | [] -> Const (b1 + b2)
      | ts -> Affine (b1 + b2, ts))
  | _ -> Iunknown

let ineg = function
  | Const x -> Const (-x)
  | Affine (base, ts) -> Affine (-base, List.map (fun (id, c) -> (id, -c)) ts)
  | Iunknown -> Iunknown

let isub a b = iadd a (ineg b)

let imul a b =
  match (a, b) with
  | Const x, Const y -> Const (x * y)
  | Const k, Affine (base, ts) | Affine (base, ts), Const k ->
      if k = 0 then Const 0
      else Affine (base * k, List.map (fun (id, c) -> (id, c * k)) ts)
  | _ -> Iunknown

let ishift a b =
  match (a, b) with
  | _, Const k when k < 0 || k > 30 -> Iunknown
  | _, Const k -> imul a (Const (1 lsl k))
  | _ -> Iunknown

(* ---- analysis context ------------------------------------------------ *)

type ctx = {
  model : Model.t;
  (* activity component *)
  mutable status : feffect SM.t;
  edges : (string, SS.t ref) Hashtbl.t;  (* dst -> sources *)
  ranges : (int, int * int) Hashtbl.t;  (* loop-var id -> inclusive range *)
  sites : (string, Site_set.t) Hashtbl.t;
  tops : (string, unit) Hashtbl.t;
  mutable notes : string list;
  (* escape component *)
  escapes : (int * Escapes.escape_kind * string, SS.t ref) Hashtbl.t;
      (* (line, kind, detail) -> tainting fields; loop passes merge *)
  escape_edges : (string, SS.t ref) Hashtbl.t;
      (* the write-edge graph as the escape side walked it *)
  mutable leaked : SS.t;
  mutable escape_notes : string list;
  (* Which components record facts: both, except inside a {!split}. *)
  mutable act : bool;
  mutable esc : bool;
  mutable fuel : int;
  mutable depth : int;
  mutable next_id : int;
  mutable gen : int;
      (* bumped by every fact the walk had not recorded yet *)
  mutable epoch : int;
      (* goes up at the start of every loop pass; a cell is born in the
         epoch current at its allocation *)
  mutable moved : int;
      (* the smallest birth epoch among the cells moved since the
         current loop pass began ([max_int]: none) *)
}

let changed ctx = ctx.gen <- ctx.gen + 1
let new_cell ctx v = { c_val = v; c_born = ctx.epoch }

let add_note ctx notes msg =
  if List.mem msg notes then notes
  else begin
    changed ctx;
    notes @ [ msg ]
  end

let note ctx msg = if ctx.act then ctx.notes <- add_note ctx ctx.notes msg

let escape_note ctx msg =
  if ctx.esc then ctx.escape_notes <- add_note ctx ctx.escape_notes msg

let fields_of ctx =
  Hashtbl.fold (fun f _ acc -> f :: acc) ctx.model.Model.fields []

let read_field ctx f =
  if ctx.act then
    match SM.find_opt f ctx.status with
    | Some Untouched -> ctx.status <- SM.add f Mayread ctx.status
    | _ -> ()

let kill_field ctx f =
  if ctx.act then
    match SM.find_opt f ctx.status with
    | Some Untouched -> ctx.status <- SM.add f Killed ctx.status
    | _ -> ()

(* [tbl]'s set at [key] grows by [srcs]. *)
let add_to ctx tbl srcs key =
  match Hashtbl.find_opt tbl key with
  | Some r ->
      if not (SS.subset srcs !r) then begin
        changed ctx;
        r := SS.union !r srcs
      end
  | None ->
      changed ctx;
      Hashtbl.add tbl key (ref srcs)

let add_edge ctx srcs dst =
  if not (SS.is_empty srcs) then begin
    if ctx.act then add_to ctx ctx.edges srcs dst;
    if ctx.esc then add_to ctx ctx.escape_edges srcs dst
  end

let mark_top ctx f =
  if ctx.act && not (Hashtbl.mem ctx.tops f) then begin
    changed ctx;
    Hashtbl.add ctx.tops f ()
  end

let record_site ctx f ie =
  if ctx.act && not (Hashtbl.mem ctx.tops f) then
    let resolved =
      match ie with
      | Const c -> Some { s_base = c; s_terms = [] }
      | Affine (base, terms) ->
          List.fold_left
            (fun acc (id, coeff) ->
              match (acc, Hashtbl.find_opt ctx.ranges id) with
              | Some site, Some (lo, hi) ->
                  Some { site with s_terms = (coeff, lo, hi) :: site.s_terms }
              | _ -> None)
            (Some { s_base = base; s_terms = [] })
            terms
      | Iunknown -> None
    in
    match resolved with
    | Some site ->
        let known =
          Option.value (Hashtbl.find_opt ctx.sites f) ~default:Site_set.empty
        in
        if not (Site_set.mem site known) then begin
          changed ctx;
          Hashtbl.replace ctx.sites f (Site_set.add site known)
        end
    | None -> mark_top ctx f

let record_escape ctx (loc : Location.t) kind detail taint =
  if ctx.esc && not (SS.is_empty taint) then
    add_to ctx ctx.escapes taint (loc.loc_start.Lexing.pos_lnum, kind, detail)

let leak ctx taint =
  if ctx.esc && not (SS.subset taint ctx.leaked) then begin
    changed ctx;
    ctx.leaked <- SS.union ctx.leaked taint
  end

(* An element read of field [f] at abstract index [ie]. *)
let read_elem ctx f ie =
  read_field ctx f;
  record_site ctx f ie

(* A whole-array read (HOF traversal, escape to an unknown callee). *)
let read_all ctx f =
  read_field ctx f;
  mark_top ctx f

(* The state record escaped into code we cannot see: every field may be
   read, written and compared, with arbitrary cross-field flow.  The
   escape component may name the context differently. *)
let state_escape ?escape ctx activity =
  let escape = Option.value escape ~default:activity in
  note ctx
    (Printf.sprintf "state escaped to %s: all fields conservative" activity);
  escape_note ctx (Printf.sprintf "state escaped to %s: all fields leak" escape);
  let fields = fields_of ctx in
  let all = SS.of_list fields in
  leak ctx all;
  List.iter
    (fun f ->
      read_all ctx f;
      add_edge ctx all f)
    fields;
  all

(* Taints reachable through a value, descending refs and local
   arrays. *)
let rec deep_taint v =
  match v.sh with
  | Ref_sh c | Local_arr c -> SS.union v.taint (deep_taint c.c_val)
  | Field_arr f -> SS.add f v.taint
  | _ -> v.taint

(* A value flowing somewhere opaque: arrays are fully read, state
   escapes, and its whole taint leaks (the unseen consumer could branch
   on it). *)
let rec use_value ctx v =
  (match v.sh with
  | Field_arr f -> read_all ctx f
  | State_sh ->
      ignore (state_escape ctx "an opaque context")
  | Ref_sh c -> ignore (use_value ctx c.c_val)
  | Local_arr _ | Closure_sh _ | Scalar_sh -> ());
  let t = deep_taint v in
  leak ctx t;
  t

(* A value boxed into a structure we do not track (tuple, record,
   constructor).  Activity consumes it as {!use_value} does.  The escape
   side is narrower: scalar taint merges into the structure's taint and
   keeps flowing — only array handles and the state record leak,
   because their later element reads happen where we cannot see
   them. *)
let rec structured ctx v =
  (match v.sh with
  | Field_arr f ->
      read_all ctx f;
      leak ctx (SS.singleton f)
  | State_sh ->
      ignore (state_escape ~escape:"a structure" ctx "an opaque context")
  | Ref_sh c -> ignore (structured ctx c.c_val)
  | Local_arr _ | Closure_sh _ | Scalar_sh -> ());
  deep_taint v

(* Cell contents only move up the lattice (joins), so comparing the
   shape physically is enough: a join keeps the old shape or falls to
   [Scalar_sh], and any cell nested in it is set through here too.  A
   move is recorded by the cell's birth epoch, so a loop pass can tell
   the cells it allocated itself from older ones (see {!interp_loop}). *)
let set_cell ctx c v =
  let old = c.c_val in
  if not (v.sh == old.sh && v.ie = old.ie && SS.equal v.taint old.taint) then
    ctx.moved <- min ctx.moved c.c_born;
  c.c_val <- v

let rec join_value ctx a b =
  let taint = SS.union a.taint b.taint in
  let ie = if a.ie = b.ie then a.ie else Iunknown in
  let sh =
    match (a.sh, b.sh) with
    | Field_arr x, Field_arr y when x = y -> a.sh
    | Local_arr ca, Local_arr cb ->
        if ca != cb then set_cell ctx ca (join_raw ca.c_val cb.c_val);
        a.sh
    | State_sh, State_sh -> State_sh
    | Ref_sh ca, Ref_sh cb ->
        if ca != cb then set_cell ctx ca (join_raw ca.c_val cb.c_val);
        a.sh
    | x, y when x == y -> x
    | x, y ->
        (* Shapes disagree: conservatively consume both sides so no
           array identity is silently lost. *)
        if x <> Scalar_sh then ignore (use_value ctx a);
        if y <> Scalar_sh then ignore (use_value ctx b);
        Scalar_sh
  in
  { taint; sh; ie }

and join_raw a b =
  (* Structural join for cell contents where no ctx is at hand: only
     taints merge; shape keeps the first side. *)
  { a with taint = SS.union a.taint b.taint }

let cell_join ctx c v = set_cell ctx c (join_value ctx c.c_val v)

(* Run [f] with only the named components recording facts.  No handler
   inside the walk catches an exception, so one that escapes [f] ends
   the analysis and the flags need no restoring. *)
let only ctx ~act ~esc f =
  let saved_act = ctx.act and saved_esc = ctx.esc in
  ctx.act <- saved_act && act;
  ctx.esc <- saved_esc && esc;
  let v = f () in
  ctx.act <- saved_act;
  ctx.esc <- saved_esc;
  v

(* ---- pattern binding ------------------------------------------------- *)

let pattern_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it' (p : pattern) ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it' p);
    }
  in
  it.pat it p;
  List.rev !acc

let rec bind_pattern env (p : pattern) v =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> SM.add txt v env
  | Ppat_constraint (inner, _) -> bind_pattern env inner v
  | Ppat_alias (inner, { txt; _ }) -> bind_pattern (SM.add txt v env) inner v
  | Ppat_any -> env
  | _ ->
      (* Destructuring loses shape but keeps taint. *)
      List.fold_left
        (fun env name -> SM.add name (scalar v.taint) env)
        env (pattern_vars p)

(* ---- the interpreter ------------------------------------------------- *)

let direct_children (e : expression) =
  let acc = ref [] in
  let collector =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ ce -> acc := ce :: !acc);
    }
  in
  Ast_iterator.default_iterator.expr collector e;
  List.rev !acc

let loop_passes = 3
let max_depth = 80

let closure_of_fn name (fn : Model.fn) =
  {
    cl_params = fn.Model.fn_params;
    cl_body = fn.Model.fn_body;
    cl_env = SM.empty;
    cl_rec = Some name;
  }

let const_of ctx name =
  match Hashtbl.find_opt ctx.model.Model.consts name with
  | Some c -> { taint = SS.empty; sh = Scalar_sh; ie = Const c }
  | None -> opaque

let is_local_module ctx head = Hashtbl.mem ctx.model.Model.local_modules head

(* A functor parameter whose operations resolve against the first
   in-file definition of the same name (IS's [O : INT_OPS] resolves to
   [Plain_ops]). *)
let is_param_module ctx head =
  let param = Hashtbl.mem ctx.model.Model.param_modules head in
  if param then
    escape_note ctx
      (Printf.sprintf
         "calls through functor parameter %s resolved against the first \
          in-file definition of each operation"
         head);
  param

let positional vals =
  List.filter_map
    (fun (label, v) ->
      match label with Asttypes.Nolabel -> Some v | _ -> None)
    vals

let nolabel vals = List.map (fun v -> (Asttypes.Nolabel, v)) vals

let rec interp ctx env (e : expression) : value =
  ctx.fuel <- ctx.fuel - 1;
  if ctx.fuel <= 0 then raise (Incomplete "interpretation fuel exhausted");
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (text, None)) -> (
      match int_of_string_opt text with
      | Some v -> { taint = SS.empty; sh = Scalar_sh; ie = Const v }
      | None -> opaque)
  | Pexp_constant _ -> opaque
  | Pexp_ident { txt; _ } -> eval_ident ctx env txt
  | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) ->
      interp ctx env inner
  | Pexp_open (_, body) -> interp ctx env body
  | Pexp_sequence (a, b) ->
      ignore (interp ctx env a);
      interp ctx env b
  | Pexp_let (rec_flag, vbs, body) ->
      let env' =
        List.fold_left
          (fun acc vb ->
            let v =
              match split_closure rec_flag env vb with
              | Some c -> closure_value c
              | None -> interp ctx env vb.pvb_expr
            in
            bind_pattern acc vb.pvb_pat v)
          env vbs
      in
      interp ctx env' body
  | Pexp_fun _ | Pexp_function _ -> (
      match split_closure_expr env e with
      | Some c -> closure_value c
      | None -> opaque)
  | Pexp_field (base, { txt; _ }) -> eval_field ctx env base txt
  | Pexp_setfield (base, { txt; _ }, rhs) ->
      let bv = interp ctx env base in
      let rv = interp ctx env rhs in
      let f = Model.last_segment txt in
      (match bv.sh with
      | State_sh when Model.is_state_field ctx.model f ->
          (* Whole-field overwrite: scalar fields are fully killed. *)
          kill_field ctx f;
          add_edge ctx (deep_taint rv) f
      | State_sh ->
          ignore (state_escape ctx "a set of an unknown field")
      | _ -> ignore (structured ctx rv));
      opaque
  | Pexp_ifthenelse (cond, then_e, else_e) ->
      let cv = interp ctx env cond in
      record_escape ctx cond.pexp_loc Escapes.Branch "if condition" cv.taint;
      let before = ctx.status in
      let tv = interp ctx env then_e in
      let after_then = ctx.status in
      ctx.status <- before;
      let ev =
        match else_e with Some b -> interp ctx env b | None -> opaque
      in
      let after_else = ctx.status in
      ctx.status <- merge_status after_then after_else;
      let v = join_value ctx tv ev in
      { v with taint = SS.union v.taint cv.taint }
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      let sv = interp ctx env scrut in
      let discriminates =
        List.length cases > 1
        || List.exists (fun (c : case) -> c.pc_guard <> None) cases
      in
      if discriminates then
        record_escape ctx scrut.pexp_loc Escapes.Branch "match scrutinee"
          sv.taint;
      interp_cases ctx env sv cases
  | Pexp_while (cond, body) ->
      interp_loop ctx env ~var:None ~cond:(Some cond) body
  | Pexp_for (pat, lo, hi, dir, body) ->
      let lov = interp ctx env lo in
      let hiv = interp ctx env hi in
      let bound_taint = SS.union lov.taint hiv.taint in
      record_escape ctx e.pexp_loc Escapes.Branch "for-loop bound" bound_taint;
      let ie =
        match (lov.ie, hiv.ie) with
        | Const a, Const b ->
            let lo, hi =
              match dir with Asttypes.Upto -> (a, b) | Downto -> (b, a)
            in
            let id = ctx.next_id in
            ctx.next_id <- id + 1;
            Hashtbl.replace ctx.ranges id (lo, hi);
            Affine (0, [ (id, 1) ])
        | _ -> Iunknown
      in
      interp_loop ctx env ~var:(Some (pat, scalar ~ie bound_taint)) ~cond:None
        body
  | Pexp_apply (fn, args) -> interp_apply ctx env ~loc:e.pexp_loc fn args
  | Pexp_tuple parts ->
      (* Components escape into a structure we do not track: consume
         them, so an array boxed here is still counted as read. *)
      let taint =
        List.fold_left
          (fun acc p -> SS.union acc (structured ctx (interp ctx env p)))
          SS.empty parts
      in
      scalar taint
  | Pexp_construct (_, None) -> opaque
  | Pexp_construct (_, Some arg) ->
      scalar (structured ctx (interp ctx env arg))
  | Pexp_array parts ->
      let elem =
        List.fold_left
          (fun acc p -> join_value ctx acc (interp ctx env p))
          opaque parts
      in
      { taint = SS.empty; sh = Local_arr (new_cell ctx elem); ie = Iunknown }
  | Pexp_assert cond ->
      let cv = interp ctx env cond in
      record_escape ctx cond.pexp_loc Escapes.Branch "assert condition"
        cv.taint;
      opaque
  | Pexp_lazy body -> interp ctx env body
  | Pexp_record (fields, base) ->
      let taint =
        List.fold_left
          (fun acc (_, fv) -> SS.union acc (structured ctx (interp ctx env fv)))
          SS.empty fields
      in
      let taint =
        match base with
        | Some b -> SS.union taint (deep_taint (interp ctx env b))
        | None -> taint
      in
      scalar taint
  | _ ->
      (* Fallback for constructs outside the modeled fragment: interpret
         every direct child and consume the results conservatively. *)
      let taint =
        List.fold_left
          (fun acc ce -> SS.union acc (structured ctx (interp ctx env ce)))
          SS.empty (direct_children e)
      in
      scalar taint

and merge_status a b =
  SM.merge
    (fun _ sa sb ->
      match (sa, sb) with
      | Some Mayread, _ | _, Some Mayread -> Some Mayread
      | Some Killed, Some Killed -> Some Killed
      | _ -> Some Untouched)
    a b

and interp_cases ctx env sv cases =
  (* Cases are merged against each other AND against the fall-through
     state, so a kill inside a branch never survives the join (the
     branch may not be the one taken — for [try] the body may not even
     raise). *)
  let before = ctx.status in
  let v, status =
    List.fold_left
      (fun (av, astatus) (case : case) ->
        ctx.status <- before;
        let env' =
          List.fold_left
            (fun env name -> SM.add name (scalar sv.taint) env)
            env
            (pattern_vars case.pc_lhs)
        in
        (match case.pc_guard with
        | Some g ->
            let gv = interp ctx env' g in
            record_escape ctx g.pexp_loc Escapes.Branch "match guard" gv.taint
        | None -> ());
        let v = interp ctx env' case.pc_rhs in
        (join_value ctx av v, merge_status astatus ctx.status))
      (sv, before) cases
  in
  ctx.status <- status;
  { v with taint = SS.union v.taint sv.taint }

(* Loop bodies run until a pass changes nothing, at most [loop_passes]
   times (local taints converge through ref cells and the write-edge
   graph), then the first-effect map is merged against the pre-loop
   state: a kill inside a possibly-zero-trip loop does not survive it,
   a may-read does.  A pass that records no new fact, moves no cell
   born before it began and leaves the first-effect map as it found it
   would be replayed exactly by the next one: the walk is deterministic
   and its facts only grow, and a cell the pass allocated itself is
   allocated again by the next pass from the same inputs.  Such a cell
   can only carry a move into the next pass by moving an older cell,
   which counts.  A pass hands the smallest birth epoch it moved out to
   the enclosing pass, for which a cell born in an earlier outer pass
   is old.  A fresh loop counter id held in an older cell counts as a
   move, which only costs a pass. *)
and interp_loop ctx env ~var ~cond body =
  let before = ctx.status in
  let env' =
    match var with
    | Some (pat, v) -> bind_pattern env pat v
    | None -> env
  in
  let rec pass k =
    let gen = ctx.gen and status = ctx.status and outer = ctx.moved in
    ctx.epoch <- ctx.epoch + 1;
    let born = ctx.epoch in
    ctx.moved <- max_int;
    (match cond with
    | Some c ->
        let cv = interp ctx env' c in
        record_escape ctx c.pexp_loc Escapes.Branch "while condition" cv.taint
    | None -> ());
    ignore (interp ctx env' body);
    let moved = ctx.moved in
    ctx.moved <- min outer moved;
    if
      k < loop_passes
      && (ctx.gen <> gen || moved < born
         || not (SM.equal ( = ) ctx.status status))
    then pass (k + 1)
  in
  pass 1;
  let after = ctx.status in
  ctx.status <-
    SM.merge
      (fun _ pre post ->
        match post with Some Mayread -> Some Mayread | _ -> pre)
      before after;
  opaque

and split_closure rec_flag env vb =
  match (Model.binding_name_of vb.pvb_pat, vb.pvb_expr.pexp_desc) with
  | Some name, (Pexp_fun _ | Pexp_function _) -> (
      match split_closure_expr env vb.pvb_expr with
      | Some c ->
          Some
            {
              c with
              cl_rec =
                (if rec_flag = Asttypes.Recursive then Some name else None);
            }
      | None -> None)
  | _ -> None

and split_closure_expr env (e : expression) =
  let rec peel params (e : expression) =
    match e.pexp_desc with
    | Pexp_fun (label, _, pat, body) -> peel ((label, pat) :: params) body
    | Pexp_newtype (_, body) -> peel params body
    | _ -> (List.rev params, e)
  in
  match peel [] e with
  | [], _ -> None
  | params, body ->
      Some { cl_params = params; cl_body = body; cl_env = env; cl_rec = None }

and eval_ident ctx env (lid : Longident.t) =
  match lid with
  | Longident.Lident name -> (
      match SM.find_opt name env with
      | Some v -> v
      | None -> (
          match Model.find_fn ctx.model name with
          | Some fn -> closure_value (closure_of_fn name fn)
          | None -> const_of ctx name))
  | _ -> (
      match Model.flatten lid with
      | head :: _ ->
          let local = is_local_module ctx head in
          if local || is_param_module ctx head then
            let last = Model.last_segment lid in
            match Model.find_fn ctx.model last with
            | Some fn -> closure_value (closure_of_fn last fn)
            | None when local -> const_of ctx last
            | None -> opaque
          else opaque
      | [] -> opaque)

and eval_field ctx env base (lid : Longident.t) =
  let bv = interp ctx env base in
  let f = Model.last_segment lid in
  match bv.sh with
  | State_sh ->
      if Model.is_state_field ctx.model f then
        if Hashtbl.find ctx.model.Model.fields f then
          (* Array field: a handle, not yet a read. *)
          { taint = SS.empty; sh = Field_arr f; ie = Iunknown }
        else begin
          (* A scalar read consumes the whole (one-element) value. *)
          read_all ctx f;
          scalar (SS.singleton f)
        end
      else begin
        ignore (state_escape ctx (Printf.sprintf "unknown field %s" f));
        scalar (SS.singleton f)
      end
  | Ref_sh c when f = "contents" -> c.c_val
  | _ ->
      (* Field of a non-state record (CG's [st.matrix.n]): taint flows
         through, structure is opaque. *)
      scalar bv.taint

and interp_apply ctx env ~loc fn args =
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let fnv =
        (* Locals shadow everything (a closure parameter named like a
           builtin must win). *)
        match txt with
        | Longident.Lident name -> SM.find_opt name env
        | _ -> None
      in
      match fnv with
      | Some v -> apply_value ctx v (eval_args ctx env args)
      | None -> (
          let path = Model.flatten txt in
          let pure_module m = Hashtbl.mem ctx.model.Model.pure_modules m in
          let effect = Effects.classify ~pure_module path in
          match resolve_local_fn ctx txt with
          | Some c when activity_resolves ctx effect txt ->
              apply_closure ctx c (eval_args ctx env args)
          | Some c -> split ctx ~loc path effect c (eval_args ctx env args)
          | None ->
              let vals = eval_args ctx env args in
              (* Discrete-consumer interception comes first: most of the
                 vocabulary classifies as Pure, and purity is exactly
                 what hides the escape from the activity facts. *)
              let name = Model.last_segment txt in
              (match Escapes.classify name with
              | Some kind -> record_escape ctx loc kind name (all_taint vals)
              | None -> ());
              apply_effect ctx ~loc path effect vals))
  | _ ->
      let fnv = interp ctx env fn in
      apply_value ctx fnv (eval_args ctx env args)

(* The callee of an application, when its body is in this file: a
   plain name, or a path through a local module or a functor
   parameter. *)
and resolve_local_fn ctx (lid : Longident.t) =
  let resolvable =
    match lid with
    | Longident.Lident _ -> true
    | _ -> (
        match Model.flatten lid with
        | head :: _ -> is_local_module ctx head || is_param_module ctx head
        | [] -> false)
  in
  if not resolvable then None
  else
    let last = Model.last_segment lid in
    Option.map (closure_of_fn last) (Model.find_fn ctx.model last)

(* Activity interprets a resolvable callee only when the effect table
   does not know it, and never through a functor parameter: another
   instantiation could bind a different implementation. *)
and activity_resolves ctx effect (lid : Longident.t) =
  effect = Effects.Unknown_call
  &&
  match lid with
  | Longident.Lident _ -> true
  | _ -> (
      match Model.flatten lid with
      | head :: _ -> is_local_module ctx head
      | [] -> false)

(* The product at a callee the two components treat differently: the
   activity side applies its effect table (an unknown call for functor
   parameters), the escape side interprets the in-file body, each with
   the other component's facts muted.  The result keeps the activity
   side's index expression and the union of both taints. *)
and split ctx ~loc path effect c vals =
  let va =
    only ctx ~act:true ~esc:false (fun () ->
        apply_effect ctx ~loc path effect vals)
  in
  let ve = only ctx ~act:false ~esc:true (fun () -> apply_closure ctx c vals) in
  { va with taint = SS.union va.taint ve.taint }

and eval_args ctx env args =
  List.map (fun (label, a) -> (label, interp ctx env a)) args

and all_taint vals =
  List.fold_left (fun acc (_, v) -> SS.union acc (deep_taint v)) SS.empty vals

and apply_effect ctx ~loc path effect vals =
  match effect with
  | Effects.Pure -> apply_pure path vals
  | Effects.Array_get -> apply_array_get ctx ~loc vals
  | Effects.Array_set -> apply_array_set ctx ~loc vals
  | Effects.Array_length -> apply_array_length ctx vals
  | Effects.Array_alloc -> apply_array_alloc ctx vals
  | Effects.Array_init -> apply_array_init ctx vals
  | Effects.Array_hof h -> apply_hof ctx h vals
  | Effects.Array_fill -> apply_array_fill ctx ~loc vals
  | Effects.Array_blit -> apply_array_blit ctx vals
  | Effects.Array_sort -> apply_array_sort ctx vals
  | Effects.Deref -> apply_deref ctx vals
  | Effects.Assign -> apply_assign ctx vals
  | Effects.Ref_make -> apply_ref_make ctx vals
  | Effects.Incr | Effects.Ignore | Effects.Raise -> opaque
  | Effects.Vranlc -> apply_vranlc ctx vals
  | Effects.Unknown_call -> unknown_call ctx vals

(* Apply a value (closure or opaque) to evaluated arguments. *)
and apply_value ctx fnv vals =
  match fnv.sh with
  | Closure_sh c -> apply_closure ctx c vals
  | Ref_sh cell -> (
      match cell.c_val.sh with
      | Closure_sh c -> apply_closure ctx c vals
      | _ -> unknown_call ctx vals)
  | _ -> unknown_call ctx vals

and apply_closure ctx c vals =
  if ctx.depth >= max_depth then begin
    let msg = "call depth limit hit: treating a call conservatively" in
    note ctx msg;
    escape_note ctx msg;
    unknown_call ctx vals
  end
  else begin
    ctx.depth <- ctx.depth + 1;
    let result = apply_closure_inner ctx c vals in
    ctx.depth <- ctx.depth - 1;
    result
  end

and apply_closure_inner ctx c vals =
  let env =
    match c.cl_rec with
    | Some name -> SM.add name (closure_value c) c.cl_env
    | None -> c.cl_env
  in
  (* Match labelled arguments to labelled parameters, positionals in
     order. *)
  let labelled_vals =
    List.filter_map
      (fun (label, v) ->
        match label with
        | Asttypes.Labelled l | Asttypes.Optional l -> Some (l, v)
        | Asttypes.Nolabel -> None)
      vals
  in
  let pos_vals = ref (positional vals) in
  let take_pos () =
    match !pos_vals with
    | v :: rest ->
        pos_vals := rest;
        Some v
    | [] -> None
  in
  let rec bind env params =
    match params with
    | [] -> (env, [])
    | (label, pat) :: rest -> (
        let arg =
          match label with
          | Asttypes.Labelled l | Asttypes.Optional l ->
              List.assoc_opt l labelled_vals
          | Asttypes.Nolabel -> take_pos ()
        in
        match arg with
        | Some v -> bind (bind_pattern env pat v) rest
        | None -> (
            match label with
            | Asttypes.Optional _ -> bind (bind_pattern env pat opaque) rest
            | _ ->
                (* Partial application. *)
                (env, params)))
  in
  let env, remaining = bind env c.cl_params in
  if remaining <> [] then
    closure_value { c with cl_params = remaining; cl_env = env }
  else
    let result = interp ctx env c.cl_body in
    match !pos_vals with
    | [] -> result
    | extra -> (
        (* Over-application: the result must itself be a function. *)
        match result.sh with
        | Closure_sh c' -> apply_closure ctx c' (nolabel extra)
        | _ -> unknown_call ctx (nolabel extra))

(* Unknown callee: every argument is consumed (and its taint leaks),
   array arguments are also written (with cross-argument flow), closures
   may be invoked by the callee (so their bodies run once against opaque
   arguments), state escapes. *)
and unknown_call ctx vals =
  let taints =
    List.fold_left
      (fun acc (_, v) -> SS.union acc (use_value ctx v))
      SS.empty vals
  in
  let taints =
    List.fold_left
      (fun acc (_, v) ->
        match v.sh with
        | State_sh -> SS.union acc (state_escape ctx "an unknown call")
        | Closure_sh c -> SS.union acc (deep_taint (force_closure ctx c))
        | _ -> acc)
      taints vals
  in
  List.iter
    (fun (_, v) ->
      match v.sh with
      | Field_arr f -> add_edge ctx taints f
      | Local_arr cell | Ref_sh cell -> cell_join ctx cell (scalar taints)
      | _ -> ())
    vals;
  scalar taints

(* A closure handed to unknown code may be invoked with anything:
   interpret its body once, all parameters opaque, so the reads and
   writes it performs are still observed. *)
and force_closure ctx c =
  apply_closure ctx c
    (List.map (fun (label, _) -> (label, opaque)) c.cl_params)

and apply_pure path vals =
  let ie =
    let name = match List.rev path with n :: _ -> n | [] -> "" in
    match (name, positional vals) with
    | "+", [ a; b ] -> iadd a.ie b.ie
    | "-", [ a; b ] -> isub a.ie b.ie
    | "*", [ a; b ] -> imul a.ie b.ie
    | "lsl", [ a; b ] -> ishift a.ie b.ie
    | "~-", [ a ] -> ineg a.ie
    | ("min" | "max"), [ a; b ] -> (
        match (a.ie, b.ie) with
        | Const x, Const y -> Const (if name = "min" then min x y else max x y)
        | _ -> Iunknown)
    | _ -> Iunknown
  in
  scalar ~ie (all_taint vals)

and apply_array_get ctx ~loc vals =
  match positional vals with
  | [ arr; idx ] -> (
      record_escape ctx loc Escapes.Subscript "array read index" idx.taint;
      match arr.sh with
      | Field_arr f ->
          read_elem ctx f idx.ie;
          scalar (SS.union (SS.add f arr.taint) idx.taint)
      | Local_arr cell ->
          {
            cell.c_val with
            taint =
              SS.union (deep_taint cell.c_val)
                (SS.union arr.taint idx.taint);
          }
      | _ -> scalar (SS.union arr.taint idx.taint))
  | vals -> unknown_call ctx (nolabel vals)

and apply_array_set ctx ~loc vals =
  match positional vals with
  | [ arr; idx; v ] ->
      record_escape ctx loc Escapes.Subscript "array write index" idx.taint;
      let srcs = SS.union (deep_taint v) idx.taint in
      (match arr.sh with
      | Field_arr f -> add_edge ctx srcs f
      | Local_arr cell -> cell_join ctx cell { v with taint = srcs }
      | _ -> ignore (structured ctx v));
      opaque
  | vals -> unknown_call ctx (nolabel vals)

(* Length is layout metadata, independent of the checkpointed element
   values: untainted, and constant for a declared field. *)
and apply_array_length ctx vals =
  match positional vals with
  | [ arr ] -> (
      match arr.sh with
      | Field_arr f -> (
          match Hashtbl.find_opt ctx.model.Model.field_elements f with
          | Some n -> { taint = SS.empty; sh = Scalar_sh; ie = Const n }
          | None -> opaque)
      | _ -> opaque)
  | vals -> unknown_call ctx (nolabel vals)

and apply_array_alloc ctx vals =
  let taint =
    List.fold_left
      (fun acc (_, v) ->
        (match v.sh with Field_arr f -> read_all ctx f | _ -> ());
        SS.union acc (deep_taint v))
      SS.empty vals
  in
  let cell = new_cell ctx (scalar taint) in
  { taint = SS.empty; sh = Local_arr cell; ie = Iunknown }

and apply_array_init ctx vals =
  match positional vals with
  | [ n; f ] ->
      let elem =
        match f.sh with
        | Closure_sh c -> apply_closure ctx c [ (Asttypes.Nolabel, opaque) ]
        | _ -> scalar (deep_taint f)
      in
      let elem = { elem with taint = SS.union elem.taint n.taint } in
      { taint = SS.empty; sh = Local_arr (new_cell ctx elem); ie = Iunknown }
  | vals -> unknown_call ctx (nolabel vals)

and apply_hof ctx kind vals =
  (* The traversed sequence(s) are whole-array reads; the callback sees
     element values tainted by them. *)
  let arrays, fns =
    List.partition
      (fun (_, v) ->
        match v.sh with
        | Field_arr _ | Local_arr _ -> true
        | _ -> false)
      vals
  in
  let elem_taint =
    List.fold_left
      (fun acc (_, v) ->
        match v.sh with
        | Field_arr f ->
            read_all ctx f;
            SS.add f acc
        | Local_arr cell -> SS.union acc (deep_taint cell.c_val)
        | _ -> acc)
      SS.empty arrays
  in
  let closure =
    List.find_map
      (fun (_, v) ->
        match v.sh with Closure_sh c -> Some c | _ -> None)
      fns
  in
  let other_taint =
    List.fold_left
      (fun acc (_, v) ->
        match v.sh with Closure_sh _ -> acc | _ -> SS.union acc (deep_taint v))
      SS.empty fns
  in
  let elem = scalar (SS.union elem_taint other_taint) in
  let apply_cb args_for_cb =
    match closure with
    | Some c -> apply_closure ctx c (nolabel args_for_cb)
    | None -> scalar (SS.union elem_taint other_taint)
  in
  (* Writes performed by mutating callbacks go through Array_set /
     field paths inside the closure body. *)
  match kind with
  | Effects.Iter ->
      ignore (apply_cb [ elem ]);
      ignore (apply_cb [ elem ]);
      opaque
  | Effects.Iteri ->
      ignore (apply_cb [ opaque; elem ]);
      ignore (apply_cb [ opaque; elem ]);
      opaque
  | Effects.Map ->
      let r = apply_cb [ elem ] in
      let cell = new_cell ctx (scalar (SS.union (deep_taint r) elem.taint)) in
      { taint = SS.empty; sh = Local_arr cell; ie = Iunknown }
  | Effects.Fold ->
      (* fold f init seq / fold_right f seq init: thread the
         accumulator twice so element taint reaches it. *)
      let acc0 = scalar other_taint in
      let acc1 = apply_cb [ acc0; elem ] in
      let acc2 =
        apply_cb [ scalar (SS.union (deep_taint acc1) elem.taint); elem ]
      in
      scalar (SS.union (deep_taint acc2) (SS.union elem_taint other_taint))

and apply_array_fill ctx ~loc vals =
  match positional vals with
  | [ arr; pos; len; v ] ->
      let bounds = SS.union pos.taint len.taint in
      record_escape ctx loc Escapes.Subscript "fill bounds" bounds;
      let srcs = SS.union (deep_taint v) bounds in
      (match arr.sh with
      | Field_arr f -> (
          add_edge ctx srcs f;
          match
            (pos.ie, len.ie, Hashtbl.find_opt ctx.model.Model.field_elements f)
          with
          | Const 0, Const n, Some elems when n >= elems -> kill_field ctx f
          | _ -> ())
      | Local_arr cell -> cell_join ctx cell { v with taint = srcs }
      | _ -> ignore (structured ctx v));
      opaque
  | vals -> unknown_call ctx (nolabel vals)

and apply_array_blit ctx vals =
  match positional vals with
  | [ src; _spos; dst; _dpos; _len ] ->
      let srcs =
        match src.sh with
        | Field_arr f ->
            read_all ctx f;
            SS.add f src.taint
        | Local_arr cell -> deep_taint cell.c_val
        | _ -> src.taint
      in
      (match dst.sh with
      | Field_arr f -> add_edge ctx srcs f
      | Local_arr cell -> cell_join ctx cell (scalar srcs)
      | _ -> ());
      opaque
  | vals -> unknown_call ctx (nolabel vals)

(* A comparison sort reads and rewrites every element. *)
and apply_array_sort ctx vals =
  List.iter
    (fun (_, v) ->
      match v.sh with
      | Field_arr f ->
          read_all ctx f;
          add_edge ctx (SS.singleton f) f
      | _ -> ())
    vals;
  opaque

and apply_deref ctx vals =
  match positional vals with
  | [ r ] -> (
      match r.sh with
      | Ref_sh cell ->
          { cell.c_val with taint = SS.union cell.c_val.taint r.taint }
      | _ -> scalar r.taint)
  | vals -> unknown_call ctx (nolabel vals)

and apply_assign ctx vals =
  match positional vals with
  | [ r; v ] ->
      (match r.sh with
      | Ref_sh cell -> cell_join ctx cell v
      | _ -> ignore (structured ctx v));
      opaque
  | vals -> unknown_call ctx (nolabel vals)

and apply_ref_make ctx vals =
  match positional vals with
  | [ v ] -> { taint = SS.empty; sh = Ref_sh (new_cell ctx v); ie = Iunknown }
  | vals -> unknown_call ctx (nolabel vals)

(* [Nprand.vranlc rng ~a count arr off]: writes [count] fresh deviates
   at [arr.(off ...)]; the control parameters flow in, nothing escapes
   discretely, and a full-extent write at offset 0 kills the array. *)
and apply_vranlc ctx vals =
  let srcs = all_taint vals in
  (match positional vals with
  | [ _rng; count; arr; off ] -> (
      match arr.sh with
      | Field_arr f -> (
          add_edge ctx srcs f;
          match
            (count.ie, off.ie, Hashtbl.find_opt ctx.model.Model.field_elements f)
          with
          | Const n, Const 0, Some elems when n >= elems -> kill_field ctx f
          | _ -> ())
      | Local_arr cell -> cell_join ctx cell (scalar srcs)
      | _ -> ())
  | _ -> ());
  opaque

(* ---- entry ----------------------------------------------------------- *)

type outcome = {
  o_status : (string * feffect) list;
  o_reaches : SS.t;  (** fields with a may-dependence path to output *)
  o_edges : (string * SS.t) list;
      (** the raw dependence graph: destination -> sources, including
          the synthetic "@output" sink — consumers (the discover pass)
          re-run closures over it *)
  o_footprints : (string * footprint) list;
  o_notes : string list;
  o_escapes : (Escapes.site * SS.t) list;
  o_leaked : SS.t;
  o_escape_notes : string list;
  o_steps : int;  (** interpretation fuel spent *)
}

(* The state fields reachable backward from [seeds] over [edges]. *)
let backward_closure ctx edges seeds =
  let visited = Hashtbl.create 16 in
  let rec go dst =
    if not (Hashtbl.mem visited dst) then begin
      Hashtbl.add visited dst ();
      match Hashtbl.find_opt edges dst with
      | Some srcs -> SS.iter go !srcs
      | None -> ()
    end
  in
  SS.iter go seeds;
  Hashtbl.fold
    (fun f _ acc -> if Model.is_state_field ctx.model f then SS.add f acc else acc)
    visited SS.empty

let fuel_limit = 50_000_000

let analyze (model : Model.t) : outcome =
  let run =
    match Model.find_fn model "run" with
    | Some fn -> fn
    | None -> raise (Incomplete "no run function found")
  in
  let output =
    match Model.find_fn model "output" with
    | Some fn -> fn
    | None -> raise (Incomplete "no output function found")
  in
  let status0 =
    Hashtbl.fold
      (fun f _ acc -> SM.add f Untouched acc)
      model.Model.fields SM.empty
  in
  let ctx =
    {
      model;
      status = status0;
      edges = Hashtbl.create 32;
      ranges = Hashtbl.create 32;
      sites = Hashtbl.create 8;
      tops = Hashtbl.create 8;
      notes = [];
      escapes = Hashtbl.create 32;
      escape_edges = Hashtbl.create 32;
      leaked = SS.empty;
      escape_notes = [];
      act = true;
      esc = true;
      fuel = fuel_limit;
      depth = 0;
      next_id = 0;
      gen = 0;
      epoch = 0;
      moved = max_int;
    }
  in
  let bind_params params =
    (* First parameter is the state; the window bounds are opaque. *)
    List.fold_left
      (fun (env, first) (_label, pat) ->
        let v =
          if first then { taint = SS.empty; sh = State_sh; ie = Iunknown }
          else opaque
        in
        (bind_pattern env pat v, false))
      (SM.empty, true) params
    |> fst
  in
  ignore (interp ctx (bind_params run.Model.fn_params) run.Model.fn_body);
  let out_v =
    interp ctx (bind_params output.Model.fn_params) output.Model.fn_body
  in
  add_to ctx ctx.edges (deep_taint out_v) "@output";
  let footprints =
    Hashtbl.fold
      (fun f _ acc ->
        if Hashtbl.mem ctx.tops f then (f, Top) :: acc
        else
          match Hashtbl.find_opt ctx.sites f with
          | Some sites -> (f, Sites (Site_set.elements sites)) :: acc
          | None -> (f, Sites []) :: acc)
      model.Model.fields []
  in
  let edges =
    Hashtbl.fold (fun dst srcs acc -> (dst, !srcs) :: acc) ctx.edges []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (* A field that flows into a tainting field is itself tainting:
     laundering through another field does not wash an escape away. *)
  let close_taint = backward_closure ctx ctx.escape_edges in
  let escapes =
    Hashtbl.fold
      (fun (line, kind, detail) taint acc ->
        ( {
            Escapes.s_file = model.Model.file;
            s_line = line;
            s_kind = kind;
            s_detail = detail;
          },
          close_taint !taint )
        :: acc)
      ctx.escapes []
    |> List.sort (fun ((a : Escapes.site), _) (b, _) ->
           compare
             (a.Escapes.s_line, a.Escapes.s_kind, a.Escapes.s_detail)
             (b.Escapes.s_line, b.Escapes.s_kind, b.Escapes.s_detail))
  in
  {
    o_status = SM.bindings ctx.status;
    o_reaches = backward_closure ctx ctx.edges (SS.singleton "@output");
    o_edges = edges;
    o_footprints = footprints;
    o_notes = ctx.notes;
    o_escapes = escapes;
    o_leaked = close_taint ctx.leaked;
    o_escape_notes = ctx.escape_notes;
    o_steps = fuel_limit - ctx.fuel;
  }
