(* The write-effect domain of the race-freedom pass.

   A fan-out closure's behaviour is abstracted to the set of mutable
   roots it may write through.  Roots are relative to the closure
   boundary: [Fresh] is state the closure itself allocated (each shard
   gets its own), [Shard] is the closure's own argument (the datum of a
   [Pool.map] shard or the index-selected slot of a [Pool.init] shard),
   and [Ext] is anything captured from the enclosing scope — the only
   kind two shards can genuinely share.

   Writes carry an element region so index-disjoint sharding is
   provable: a [Pool.init] closure writing [shared.(2*i + 1)] for shard
   index [i] has an affine region with scale 2, and {!Disjoint} decides
   whether a family of affine writes can collide across shards. *)

type root =
  | Fresh  (** allocated inside the closure: private to the shard *)
  | Shard  (** the shard's own datum / index slot *)
  | Ext of string  (** captured from outside the closure: shared *)

let root_name = function
  | Fresh -> "fresh"
  | Shard -> "shard"
  | Ext s -> "ext:" ^ s

let compare_root (a : root) (b : root) = compare a b

(* Element region of one write, in terms of the shard index [i] (only
   [Pool.init] closures have one; [Pool.map] writes are [All]). *)
type region =
  | All  (** unknown extent: may touch any element *)
  | Affine of { scale : int; offset : int }
      (** exactly element [scale * i + offset] *)

let region_name = function
  | All -> "all"
  | Affine { scale; offset } -> Printf.sprintf "%d*i%+d" scale offset

type write = {
  wr_root : root;
  wr_region : region;
  wr_file : string;
  wr_line : int;
  wr_what : string;  (** rendered target, e.g. ["Array.set out"] *)
}

let write_site w = Printf.sprintf "%s:%d" w.wr_file w.wr_line

(* What one closure does, as far as the interpreter could see.  An
   obligation is a fact the analysis needed and could not establish —
   an unresolvable call, an exhausted budget, a value it lost track
   of.  Obligations force the [Unknown] verdict: the pass reports what
   it failed to prove, it never guesses. *)
type summary = {
  sm_writes : write list;
  sm_obligations : string list;
  sm_premises : string list;
      (** documented contracts the proof leans on (module contract,
          accessor contract, trusted pool/sanitizer primitives) *)
}

let dedup_strings l = List.sort_uniq String.compare l

let dedup_writes ws =
  List.sort_uniq
    (fun a b ->
      compare
        (a.wr_root, a.wr_region, a.wr_file, a.wr_line, a.wr_what)
        (b.wr_root, b.wr_region, b.wr_file, b.wr_line, b.wr_what))
    ws

let ext_writes s =
  List.filter (fun w -> match w.wr_root with Ext _ -> true | _ -> false)
    s.sm_writes

let shard_writes s = List.filter (fun w -> w.wr_root = Shard) s.sm_writes
let fresh_writes s = List.filter (fun w -> w.wr_root = Fresh) s.sm_writes
