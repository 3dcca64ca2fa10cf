(* Footprint-interval disjointness for shard-indexed writes.

   A [Pool.init] closure that writes a captured array only at affine
   positions [scale * i + offset] of its shard index [i] is race-free
   when no two distinct shards can produce the same element.  For a
   family of affine writes sharing one target, that holds exactly when
   every pair has the same nonzero scale and offsets too close together
   to wrap into a neighbouring shard's lane:

     s*i + o1 = s*j + o2  with  i <> j   =>   |o1 - o2| >= |s|

   so requiring a common scale [s <> 0] and [max_offset - min_offset <
   |s|] makes collisions impossible.  This is the same interval
   complement machinery PR 4 uses for inactive spans, specialized to
   the one question the race pass asks. *)

type outcome =
  | Disjoint of { scale : int; lo_offset : int; hi_offset : int }
      (** every shard's footprint is the lane
          [{scale*i + o | lo_offset <= o <= hi_offset}], and lanes of
          distinct shards cannot intersect *)
  | May_collide of string  (** why two shards can hit the same element *)

let explain = function
  | Disjoint { scale; lo_offset; hi_offset } ->
      Printf.sprintf "affine lane %d*i+[%d..%d], stride covers extent" scale
        lo_offset hi_offset
  | May_collide why -> why

(* Decide one target's affine write family.  [regions] must be the
   regions of every write reaching that target; any [All] region
   defeats the proof. *)
let decide (regions : Effects.region list) : outcome =
  let rec go acc = function
    | [] -> Ok acc
    | Effects.All :: _ -> Error "a write with unbounded extent reaches it"
    | Effects.Affine { scale; offset } :: rest -> go ((scale, offset) :: acc) rest
  in
  match go [] regions with
  | Error why -> May_collide why
  | Ok [] -> May_collide "no writes to decide"
  | Ok ((s0, o0) :: rest) ->
      if s0 = 0 then
        May_collide "scale 0: every shard writes the same element"
      else if List.exists (fun (s, _) -> s <> s0) rest then
        May_collide "writes with different strides may interleave"
      else
        let lo = List.fold_left (fun a (_, o) -> min a o) o0 rest in
        let hi = List.fold_left (fun a (_, o) -> max a o) o0 rest in
        if hi - lo < abs s0 then
          Disjoint { scale = s0; lo_offset = lo; hi_offset = hi }
        else
          May_collide
            (Printf.sprintf
               "offsets span %d >= stride %d: lanes of adjacent shards overlap"
               (hi - lo) (abs s0))
