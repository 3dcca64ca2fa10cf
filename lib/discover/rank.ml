(* The discovery ranking.  Soundness invariant (gated dynamically by
   @discover-check): a field is ranked prunable ONLY when its
   first-effect status is [Untouched] or [Killed] — the checkpointed
   value is provably never consumed by the post-boundary cone, so every
   derivative through it is zero and the dynamic engine can never find
   a critical element inside it.  Everything else stays in the proposed
   set ([Required] when an output path is resolved, [Unknown]
   otherwise).  The recomputability fixpoint below never changes
   membership; it only upgrades a prune's justification from "dead
   store" to "regenerable from kept state". *)

module Model = Scvad_activity.Model
module Absint = Scvad_activity.Absint
module Verdict = Scvad_activity.Verdict
module SS = Absint.SS

type verdict = Required | Prunable_recomputable | Prunable_dead | Unknown

let verdict_name = function
  | Required -> "required"
  | Prunable_recomputable -> "prunable-recomputable"
  | Prunable_dead -> "prunable-dead"
  | Unknown -> "unknown"

let verdict_of_name = function
  | "required" -> Some Required
  | "prunable-recomputable" | "recomputable" -> Some Prunable_recomputable
  | "prunable-dead" | "dead" -> Some Prunable_dead
  | "unknown" -> Some Unknown
  | _ -> None

let is_prunable = function
  | Prunable_recomputable | Prunable_dead -> true
  | Required | Unknown -> false

let is_discovered = function
  | Required | Unknown -> true
  | Prunable_recomputable | Prunable_dead -> false

type field_rank = {
  f_field : string;
  f_var : string option;
  f_kind : Verdict.kind option;
  f_elements : int option;
  f_live : bool;
  f_reaches : bool;
  f_recomputable : bool;
  f_verdict : verdict;
  f_reason : string;
  f_assumed : bool;
}

type app_ranks = {
  r_app : string;
  r_source : string;
  r_resolved : bool;
  r_fields : field_rank list;
  r_notes : string list;
}

type proposals = app_ranks list

let find_field (a : app_ranks) ~field =
  List.find_opt (fun (f : field_rank) -> f.f_field = field) a.r_fields

let discovered_fields (a : app_ranks) =
  List.filter_map
    (fun f -> if is_discovered f.f_verdict then Some f.f_field else None)
    a.r_fields

let pruned_vars (a : app_ranks) =
  List.filter
    (fun f -> f.f_var <> None && is_prunable f.f_verdict)
    a.r_fields

let pruned_float_vars (a : app_ranks) =
  List.filter_map
    (fun f ->
      match (f.f_var, f.f_kind) with
      | Some v, Some Verdict.Float_var when is_prunable f.f_verdict -> Some v
      | _ -> None)
    a.r_fields

let added_fields (a : app_ranks) =
  List.filter (fun f -> f.f_var = None && f.f_verdict = Required) a.r_fields

let count_verdict (ps : proposals) v =
  List.fold_left
    (fun acc a ->
      List.fold_left
        (fun acc f -> if f.f_verdict = v then acc + 1 else acc)
        acc a.r_fields)
    0 ps

(* ------------------------------------------------------------------ *)
(* Ranking                                                             *)
(* ------------------------------------------------------------------ *)

let state_fields (m : Model.t) =
  Hashtbl.fold (fun f _ acc -> f :: acc) m.Model.fields []
  |> List.sort String.compare

let decl_of (m : Model.t) f =
  List.find_opt (fun (v : Model.var_decl) -> v.Model.v_field = Some f)
    m.Model.vars

let base ~(m : Model.t) f =
  let decl = decl_of m f in
  {
    f_field = f;
    f_var = Option.map (fun (v : Model.var_decl) -> v.Model.v_name) decl;
    f_kind = Option.map (fun (v : Model.var_decl) -> v.Model.v_kind) decl;
    f_elements = Hashtbl.find_opt m.Model.field_elements f;
    f_live = true;
    f_reaches = false;
    f_recomputable = false;
    f_verdict = Unknown;
    f_reason = "";
    f_assumed = false;
  }

(* Recomputability fixpoint over the killed fields: a killed field is
   recomputable when every state-field source of its regeneration
   writes is already kept (checkpointed), itself (post-kill values),
   or another recomputable field — and its taint never leaked into a
   callee the pass cannot see.  Monotone, so plain iteration to a
   fixpoint.  The edge graph is flow-insensitive, which is fine here:
   the conclusion only labels the justification of a prune whose
   soundness rests on the kill, not on this analysis. *)
let recomputable_set ~edges ~leaked ~(m : Model.t) ~keep killed =
  let sources f =
    match List.assoc_opt f edges with
    | Some srcs -> SS.filter (fun s -> Model.is_state_field m s) srcs
    | None -> SS.empty
  in
  let recomputable = Hashtbl.create 8 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        if
          (not (Hashtbl.mem recomputable f))
          && (not (SS.mem f leaked))
          && SS.for_all
               (fun s ->
                 s = f || SS.mem s keep || Hashtbl.mem recomputable s)
               (sources f)
        then begin
          Hashtbl.add recomputable f ();
          changed := true
        end)
      killed
  done;
  recomputable

let comma set = String.concat ", " (SS.elements set)

let rank ?absint (m : Model.t) =
  let fields = state_fields m in
  match absint with
  | None ->
      List.map
        (fun f ->
          {
            (base ~m f) with
            f_verdict = Unknown;
            f_reason =
              "abstract interpretation incomplete: no effect or dependence \
               facts for this kernel";
          })
        fields
  | Some (o : Absint.outcome) ->
      let status f =
        Option.value
          (List.assoc_opt f o.Absint.o_status)
          ~default:Absint.Mayread
      in
      let leaked = o.Absint.o_leaked in
      let keep =
        SS.of_list
          (List.filter (fun f -> status f = Absint.Mayread) fields)
      in
      let killed =
        List.filter (fun f -> status f = Absint.Killed) fields
      in
      let recomputable =
        recomputable_set ~edges:o.Absint.o_edges ~leaked ~m ~keep killed
      in
      List.map
        (fun f ->
          let b = base ~m f in
          let reaches = SS.mem f o.Absint.o_reaches in
          let live = status f = Absint.Mayread in
          let recomp = Hashtbl.mem recomputable f in
          let decree =
            match decl_of m f with
            | Some v -> v.Model.v_declared_critical
            | None -> None
          in
          let verdict, reason =
            match (decree, status f) with
            | Some why, _ ->
                ( Required,
                  Printf.sprintf
                    "declared Always_critical (%s): kept by decree, the \
                     derivative criterion is never consulted"
                    why )
            | None, Absint.Untouched ->
                ( Prunable_dead,
                  "never read in the post-checkpoint cone: restoring it \
                   cannot change the continuation" )
            | None, Absint.Killed when recomp ->
                ( Prunable_recomputable,
                  "fully overwritten before any read, and the regeneration \
                   draws only on kept state and constants (AutoCheck's \
                   pruning rule)" )
            | None, Absint.Killed ->
                ( Prunable_dead,
                  Printf.sprintf
                    "fully overwritten before any read; regeneration sources \
                     unresolved (%s), so the prune rests on the kill alone"
                    (if SS.mem f leaked then "taint leaked to unknown callees"
                     else
                       "discarded or opaque sources: "
                       ^ comma
                           (match List.assoc_opt f o.Absint.o_edges with
                           | Some s ->
                               SS.filter
                                 (fun s ->
                                   Model.is_state_field m s
                                   && s <> f && not (SS.mem s keep))
                                 s
                           | None -> SS.empty)) )
            | None, Absint.Mayread when reaches ->
                ( Required,
                  "live across the boundary with a may-dependence path to \
                   the output" )
            | None, Absint.Mayread ->
                ( Unknown,
                  "read after the boundary but no resolved path to the \
                   output — a missing edge may be taint lost through an \
                   opaque value, so the field stays in the proposed set" )
          in
          {
            b with
            f_live = live;
            f_reaches = reaches;
            f_recomputable = recomp;
            f_verdict = verdict;
            f_reason = reason;
          })
        fields
