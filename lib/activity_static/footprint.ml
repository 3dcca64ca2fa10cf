(* Sub-variable interval refinement: turn the affine read sites of one
   array into the element spans provably never read — the complement of
   the enumerated footprint.  Reads are over-approximated upstream
   (guards ignored, [Top] on anything unresolved), so the complement
   only shrinks: every claimed span is genuinely unread. *)

(* Points a site contributes: the product of its term ranges (an empty
   range means the enclosing loop never executes). *)
let site_points (s : Absint.site) =
  List.fold_left
    (fun acc (_, lo, hi) -> if hi < lo then 0 else acc * (hi - lo + 1))
    1 s.Absint.s_terms

let enumeration_cap = 1 lsl 24

let mark_site read elements (s : Absint.site) =
  let n = Array.length read in
  let rec go base terms =
    match terms with
    | [] -> if base >= 0 && base < n && base < elements then read.(base) <- true
    | (coeff, lo, hi) :: rest ->
        for v = lo to hi do
          go (base + (coeff * v)) rest
        done
  in
  if site_points s > 0 then go s.Absint.s_base s.Absint.s_terms

(* [inactive_spans ~elements fp] is the region set of elements provably
   never read, or [None] when the footprint is [Top] or too large to
   enumerate. *)
let inactive_spans ~elements (fp : Absint.footprint) =
  match fp with
  | Absint.Top -> None
  | Absint.Sites sites ->
      if elements <= 0 then None
      else
        let total = List.fold_left (fun acc s -> acc + site_points s) 0 sites in
        if total > enumeration_cap then None
        else begin
          let read = Array.make elements false in
          List.iter (mark_site read elements) sites;
          let covered = Scvad_checkpoint.Regions.of_mask read in
          Some (Scvad_checkpoint.Regions.complement ~total:elements covered)
        end
