(* Reverse-mode tape: a compact, append-only record of the data-flow graph.

   Each node has at most two parents.  Parents and local partial
   derivatives are stored in Bigarrays (16 bytes per node slot: two
   int32 parents and one float64 partial) so that tapes with tens of
   millions of nodes — e.g. an FT class-S inverse 3-D FFT — fit
   comfortably in memory and put no pressure on the OCaml GC.

   One partial per slot suffices for almost every node, because the
   parent fields say what the stored partial is (see [push2]):
   - [lhs = -1, rhs = -1]: a leaf; the partial is never read.
   - [lhs = p >= 0, rhs = -1]: one parent [p]; the partial is its own.
     A push with a constant on either side lands here.
   - [lhs = l >= 0, rhs = -2 - r]: two parents, the lhs partial is
     exactly 1; the stored partial is the rhs one.
   - [lhs = -2 - l, rhs = r >= 0]: two parents, the lhs partial is
     exactly 0 (or -0); the stored partial is the rhs one.
   - [lhs = l >= 0, rhs = r >= 0]: two general partials; the stored one
     is the lhs partial, and the rhs partial sits at the same offset in
     the slab's overflow array.
   A parent precedes its child, so it is at most [max_nodes - 2] and
   [-2 - parent] never leaves the int32 range: every id stays usable.
   The sweeps decode the kind and form the products the stored pair
   would ([a *. 1.] and [a *. 0.] for an implied partial), in the same
   order, so adjoints are bitwise those of a two-partial layout.  An
   implied 0 in place of a -0 partial changes no adjoint: an
   accumulator entry is first written as [0. +. c] and never holds -0,
   and [x +. 0.] equals [x +. -0.] for every other [x].

   Storage is chunked: a tape is a sequence of equally sized Bigarray
   slabs.  Growing appends one slab instead of reallocating and copying
   the whole tape.  Slabs of the default size come from a per-domain
   free list ([pool]) and go back to it on [release], so an analysis
   that follows another in the same domain writes into pages that are
   already mapped instead of faulting in fresh ones.  Overflow arrays
   have a pool of their own ([overflow_pool]): a slab takes one at its
   first general node and gives it back at [release], so a recording
   with no general node (FT's) holds none.

   Node ids are global indices; because every slab holds [sn] nodes, id
   [i] lives in slab [i / sn] at offset [i mod sn].  The hot paths
   (push, the sweeps) use [Array1.unsafe_get]/[unsafe_set]: push writes
   only below [cur_end], which never passes the end of [cur], and the
   sweeps' indices are bounded by the one up-front check on [output]
   plus the tape invariant that parents are recorded before their
   children.

   Without a memory budget every node stays stored.  Under a budget,
   recording keeps only a trailing window of slabs and the backward
   sweep replays the program to rebuild the discarded ones (see
   [backward]); the node layout, the ids and the sweep engine are the
   same either way. *)

type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type slab = {
  lhs : i32; (* parent fields: together they give the node's kind *)
  rhs : i32;
  d : f64; (* the one stored partial *)
  mutable ovf : f64; (* rhs partials of general nodes, or [no_overflow] *)
  mutable base : int; (* global id of this slab's first node *)
}

(* Cached backward-sweep state: the adjoint accumulator plus the
   frontier bitmap (one bit per node, set the moment the node's adjoint
   receives its first contribution).  Both survive across sweeps on the
   same tape.  Invariant: an entry of [f_adj] is defined only when its
   bit is set in [f_bits]; a clear bit reads as adjoint 0.  So a sweep
   never zero-fills the accumulator: it clears the bitmap and writes
   each entry first as [0. +. c], and the pages of entries no sweep
   touches are never written. *)
type frontier = { f_adj : f64; f_bits : Bytes.t }

let alloc_i32 n : i32 = Bigarray.(Array1.create int32 c_layout n)
let alloc_f64 n : f64 = Bigarray.(Array1.create float64 c_layout n)

let default_slab_nodes = 1 lsl 16

(* The overflow array of a slab that holds no general node. *)
let no_overflow = alloc_f64 0

(* Free default-size slabs and overflow arrays of the running domain.
   Domain-local, so taking and returning one needs no lock.  [release]
   and the unused rest of a fresh chunk fill them; a tape that is
   dropped unreleased leaves its storage to the GC.  Recycled storage
   keeps whatever the previous tape wrote; that is sound because a push
   writes every field its kind uses before any sweep or replay reads
   it.  A pooled slab holds no overflow array: [release] detaches it,
   so a recording without general nodes never keeps one alive. *)
let pool : slab list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])
let overflow_pool : f64 list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

(* [count] slabs of [nodes] carved out of two allocations, one for the
   ids and one for the partials.  Every Bigarray allocation paces the
   major GC by its size, capped at one cycle's worth per allocation: a
   lone FT analysis whose 24.5M-node tape grew one 65,536-node slab at
   a time ran 32 major collections, 21 with doubling chunks, 16 with
   one slab sized to the whole recording.  Untouched pages of a chunk
   cost no memory. *)
let fresh_slabs ~nodes ~count =
  let ids = alloc_i32 (2 * nodes * count) in
  let partials = alloc_f64 (nodes * count) in
  let sub a k = Bigarray.Array1.sub a (k * nodes) nodes in
  List.init count (fun i ->
      { lhs = sub ids (2 * i); rhs = sub ids ((2 * i) + 1);
        d = sub partials i; ovf = no_overflow; base = 0 })

(* [count] overflow arrays of [nodes], one allocation for the same
   reason. *)
let fresh_overflows ~nodes ~count =
  let a = alloc_f64 (nodes * count) in
  List.init count (fun i -> Bigarray.Array1.sub a (i * nodes) nodes)

(* One item of [key]'s pool, refilled when empty with [fresh count]. *)
let rec take key fresh ~chunk =
  match Domain.DLS.get key with
  | x :: rest ->
      Domain.DLS.set key rest;
      x
  | [] ->
      Domain.DLS.set key (fresh (Stdlib.max 1 chunk));
      take key fresh ~chunk

(* One slab based at [base]: from the domain's pool when it has the
   default size, else fresh.  An empty pool is refilled with a chunk of
   [chunk] slabs, so a tape that doubles its chunk with its size
   allocates O(log n) times. *)
let alloc_slab ?(chunk = 1) ~nodes ~base () =
  let s =
    if nodes <> default_slab_nodes then List.hd (fresh_slabs ~nodes ~count:1)
    else take pool (fun count -> fresh_slabs ~nodes ~count) ~chunk
  in
  s.base <- base;
  s

(* Hand a slab, and apart from it its overflow array, to the pools. *)
let recycle_slab s =
  let o = s.ovf in
  s.ovf <- no_overflow;
  if Bigarray.Array1.dim o = default_slab_nodes then
    Domain.DLS.set overflow_pool (o :: Domain.DLS.get overflow_pool);
  if Bigarray.Array1.dim s.lhs = default_slab_nodes then
    Domain.DLS.set pool (s :: Domain.DLS.get pool)

(* First id beyond the slab at [base], clamped at the id limit so the
   push that would exceed it always lands in a growth step, where the
   limit is checked. *)
let slab_end base nodes = Stdlib.min (base + nodes) Tape_intf.max_nodes

(* ------------------------------------------------------------------ *)
(* Sparsity-aware frontier sweep engine.

   A dense descending scan's only skip is the per-node [a <> 0.] test:
   it still reads every adjoint of a 24.5M-node FT tape even though the
   zeroness of most of them IS the paper's uncriticality signal.  Here
   a bitmap tracks which nodes have received any adjoint contribution;
   the descending scan skips untouched nodes 8 or 64 at a time without
   reading the accumulator.  Skipping is loss-free and order-preserving
   because a contribution only ever lands at an id strictly below the
   node being processed (parents precede children), so a skipped range
   can never gain a bit after the scan has passed it.  The nodes that
   are inspected and found nonzero — and the order they are inspected
   in — are exactly those of the dense scan, so every floating-point
   addition happens in the same order and the result is bitwise
   identical. *)

let[@inline] set_bit bits i =
  let byte = i lsr 3 in
  Bytes.unsafe_set bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bits byte) lor (1 lsl (i land 7))))

let[@inline] bit_set bits i =
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* A cleared bitmap covering ids [0, dim) over an accumulator at least
   that long: the cached one when large enough, else a fresh one whose
   entries stay unwritten until the sweep defines them. *)
let obtain_frontier cached ~dim =
  match cached with
  | Some fr when Bigarray.Array1.dim fr.f_adj >= dim ->
      Bytes.fill fr.f_bits 0 (Bytes.length fr.f_bits) '\000';
      fr
  | _ -> { f_adj = alloc_f64 dim; f_bits = Bytes.make ((dim + 7) lsr 3) '\000' }

(* Any touched node in id range [lo, hi]?  Byte-granular, so shared
   boundary bytes make it conservative (may answer [true] for a range
   whose own nodes are untouched) — a false positive only costs a sweep
   that visits nothing. *)
let range_live bits ~lo ~hi =
  let b_hi = hi lsr 3 in
  let b = ref (lo lsr 3) and live = ref false in
  while (not !live) && !b <= b_hi do
    if !b + 8 <= b_hi + 1 then
      if Bytes.get_int64_ne bits !b = 0L then b := !b + 8 else live := true
    else if Bytes.unsafe_get bits !b <> '\000' then live := true
    else incr b
  done;
  !live

(* Add [c] to the adjoint of node [p].  The first contribution sets the
   bit and writes [0. +. c], exactly the sum a zeroed entry would hold
   (so [-0.] still lands as [+0.]); later ones accumulate as before. *)
let[@inline] contribute (adj : f64) bits p c =
  let byte = p lsr 3 and m = 1 lsl (p land 7) in
  let b = Char.code (Bytes.unsafe_get bits byte) in
  if b land m <> 0 then
    Bigarray.Array1.unsafe_set adj p (Bigarray.Array1.unsafe_get adj p +. c)
  else begin
    Bigarray.Array1.unsafe_set adj p (0. +. c);
    Bytes.unsafe_set bits byte (Char.unsafe_chr (b lor m))
  end

(* Sequential frontier scan of ids [hi] downto [lo]: inspect only
   touched nodes, propagate only nonzero ones.  [get_slab k] must
   return the materialized slab holding ids [k*sn, (k+1)*sn).  Returns
   the number of propagating (visited) nodes. *)
let frontier_scan ~get_slab ~sn ~(adj : f64) ~bits ~hi ~lo =
  let visited = ref 0 in
  if hi >= lo then begin
    let k = ref (hi / sn) in
    let s = ref (get_slab !k) in
    let i = ref hi in
    while !i >= lo do
      let ip = !i in
      let byte = ip lsr 3 in
      if ip land 7 = 7 && Bytes.unsafe_get bits byte = '\000' then
        (* Ids (ip-7, ip] untouched; widen to 64 on word alignment. *)
        if
          ip land 63 = 63 && byte >= 7
          && Bytes.get_int64_ne bits (byte - 7) = 0L
        then i := ip - 64
        else i := ip - 8
      else begin
        if bit_set bits ip then begin
          let a = Bigarray.Array1.unsafe_get adj ip in
          (* lint: allow float-equality — exact-zero adjoint skip: a
             zero contributes exactly nothing, so propagation is
             loss-free *)
          if a <> 0. then begin
            incr visited;
            while ip < (!s).base do
              decr k;
              s := get_slab !k
            done;
            let sl = !s in
            let j = ip - sl.base in
            let l = Int32.to_int (Bigarray.Array1.unsafe_get sl.lhs j) in
            let r = Int32.to_int (Bigarray.Array1.unsafe_get sl.rhs j) in
            let d = Bigarray.Array1.unsafe_get sl.d j in
            (* Decode the kind (see the top of this file); a leaf
               propagates nothing. *)
            if l >= 0 then
              if r = -1 then contribute adj bits l (a *. d)
              else if r >= 0 then begin
                contribute adj bits l (a *. d);
                contribute adj bits r
                  (a *. Bigarray.Array1.unsafe_get sl.ovf j)
              end
              else begin
                contribute adj bits l (a *. 1.);
                contribute adj bits (-2 - r) (a *. d)
              end
            else if l < -1 then begin
              contribute adj bits (-2 - l) (a *. 0.);
              contribute adj bits r (a *. d)
            end
          end
        end;
        i := ip - 1
      end
    done
  end;
  !visited

(* The budgeted tape has one recompute-vs-store schedule, binomial
   checkpointing (see [start_segment] and [ensure_window]).  The type
   exists only because the benchmark passes [Tape.Segmented.Binomial]
   through [Analyzer.Config.with_schedule]. *)
module Segmented = struct
  type schedule = Binomial
end

(* Adjoint accumulator produced by a backward sweep, with the bitmap
   that says which of its entries the sweep defined. *)
type adjoints = { adj : f64; bits : Bytes.t; upto : int }

(* Adjoint of a node; nodes above the output (or constants, id = -1)
   cannot influence it, and a node the sweep never reached received no
   contribution, so their adjoint is 0. *)
let adjoint g id =
  if id < 0 || id > g.upto || not (bit_set g.bits id) then 0. else g.adj.{id}

(* Recording under a budget keeps only a trailing window of at most
   [budget_slabs] materialized slabs; older slabs go to the tape's
   freelist as soon as replay can rebuild them (a primal snapshot at or
   below them exists).  [start_segment] marks program-step boundaries;
   the registered [capture] hook snapshots restart state there — the
   paper's premise that checkpoint variables are a complete restart
   state is exactly what makes those snapshots sufficient.  [backward]
   sweeps slab windows top-down, replaying the program from the nearest
   snapshot to rematerialize each discarded window.  Replay is
   deterministic, so re-pushed nodes get the ids they had during
   recording; watermark checks at every boundary turn any divergence
   into an error instead of a silent wrong adjoint.

   Nodes pushed before the first [start_segment] of a registered
   program (the prelude — input lifting) are never replayed and must be
   parentless: the budgeted sweep skips them (a leaf receives adjoint
   but propagates nothing), which is enforced at push time.

   The adjoint accumulator itself spans every id up to the output:
   adjoint edges cross segment boundaries, so it cannot be windowed
   without a second level of checkpointing.  Only the entries the sweep
   touches are written (see [frontier]), so its resident share follows
   the adjoint cone, not the tape.  The memory budget bounds tape *node
   slots* (16 bytes each, plus 8 in a slab's overflow array once the
   slab holds a node with two general partials); callers size budgets
   accordingly.

   Push keeps the dense cost — one compare against [cur_end], three
   stores, one increment, plus the kind tests of a two-parent push —
   because every exceptional case takes the [cur_end] slow path: a
   registered prelude holds [cur_end = n], so each prelude push is
   checked there, and a replay below its target window writes into
   [scratch] instead of testing a flag per push. *)

type mode = Recording | Replaying

type t = {
  sn : int; (* nodes per slab *)
  budget_slabs : int; (* max materialized slabs; [max_int]: no budget *)
  snapshot_slots : int;
  mutable n : int; (* nodes recorded (or replayed) so far *)
  mutable total : int; (* frozen recording length at backward *)
  mutable dir : slab option array; (* slab index -> live storage *)
  mutable free : slab list; (* detached storage for reuse *)
  mutable scratch : slab option; (* target of pushes below a replay window *)
  mutable live_cnt : int; (* materialized slabs *)
  mutable live_lo : int; (* oldest materialized slab (recording) *)
  mutable cur : slab; (* storage the next push writes into *)
  mutable cur_end : int; (* the push of this id takes the slow path *)
  mutable mode : mode;
  mutable win_lo : int; (* replay target window, in slabs *)
  mutable win_hi : int;
  mutable capture : (unit -> unit -> unit) option;
  mutable replay_step : (int -> unit) option;
  mutable marks : int array; (* marks.(s) = n at boundary s *)
  mutable nseg : int;
  mutable snaps : (unit -> unit) option array; (* restore thunks *)
  mutable snap_cnt : int;
  mutable stride : int; (* snapshot retention stride *)
  mutable plan : int list; (* binomial re-capture boundaries *)
  mutable replays : int;
  mutable replayed_nodes : int;
  mutable peak_live : int; (* in slabs *)
  mutable overflow_slabs : int; (* overflow arrays attached *)
  mutable snapshots_taken : int;
  mutable fr : frontier option; (* sweep state cached across backwards *)
  mutable last : Tape_intf.sweep_stats option;
  mutable released : bool; (* storage handed to the domain's pool *)
}

(* Raised by a replay push that crosses above the target window: the
   window is fully rematerialized, so the rest of the program step need
   not run.  The aborted step leaves kernel state mid-update, which is
   fine — the next replay restores a snapshot first, and the sweep
   touches only tape storage. *)
exception Window_filled

let create ?capacity_hint ?budget_nodes ?(snapshot_slots = 32) () =
  (match capacity_hint with
  | Some h when h < 0 ->
      invalid_arg
        (Printf.sprintf "Tape.create: capacity_hint must be >= 0 (got %d)" h)
  | _ -> ());
  (match budget_nodes with
  | Some b when b < 1 ->
      invalid_arg
        (Printf.sprintf "Tape.create: budget_nodes must be >= 1 (got %d)" b)
  | _ -> ());
  if snapshot_slots < 1 then
    invalid_arg
      (Printf.sprintf "Tape.create: snapshot_slots must be >= 1 (got %d)"
         snapshot_slots);
  let sn =
    match (capacity_hint, budget_nodes) with
    | Some h, _ -> Stdlib.max h 16
    | None, None -> default_slab_nodes
    | None, Some b ->
        (* Eight-or-more slabs per budget keeps replay windows coarse
           enough to amortize a replay pass over many swept nodes. *)
        Stdlib.max 16 (Stdlib.min default_slab_nodes (b / 8))
  in
  let budget_slabs =
    match budget_nodes with None -> max_int | Some b -> Stdlib.max 1 (b / sn)
  in
  let first = alloc_slab ~nodes:sn ~base:0 () in
  let dir = Array.make 8 None in
  dir.(0) <- Some first;
  {
    sn;
    budget_slabs;
    snapshot_slots;
    n = 0;
    total = 0;
    dir;
    free = [];
    scratch = None;
    live_cnt = 1;
    live_lo = 0;
    cur = first;
    cur_end = slab_end 0 sn;
    mode = Recording;
    win_lo = 0;
    win_hi = max_int;
    capture = None;
    replay_step = None;
    marks = Array.make 8 0;
    nseg = 0;
    snaps = Array.make 8 None;
    snap_cnt = 0;
    stride = 1;
    plan = [];
    replays = 0;
    replayed_nodes = 0;
    peak_live = 1;
    overflow_slabs = 0;
    snapshots_taken = 0;
    fr = None;
    last = None;
    released = false;
  }

let length t = t.n
let slab_nodes t = t.sn
let capacity t = (t.live_cnt + List.length t.free) * t.sn

(* [release] leaves [cur_end = n], so a push after it takes the slow
   path and fails here instead of writing into a recycled slab. *)
let check_live who t =
  if t.released then invalid_arg (who ^ ": the tape was released")

(* Materialize slab [k] for the push of node [t.n] (idempotent): reuse
   the tape's freelist, else take from the domain's pool or allocate;
   the slab directory doubles.  Raises
   [Tape_intf.Too_many_nodes] past the int32 id limit. *)
let materialize t k =
  Tape_intf.check_nodes (t.n + 1);
  if k >= Array.length t.dir then begin
    let cap = ref (2 * Array.length t.dir) in
    while k >= !cap do
      cap := 2 * !cap
    done;
    let d = Array.make !cap None in
    Array.blit t.dir 0 d 0 (Array.length t.dir);
    t.dir <- d
  end;
  match t.dir.(k) with
  | Some s -> s
  | None ->
      let base = k * t.sn in
      let s =
        match t.free with
        | s :: rest ->
            t.free <- rest;
            s.base <- base;
            s
        | [] ->
            (* An unbudgeted tape grows in chunks as large as itself. *)
            let chunk = if t.budget_slabs = max_int then t.live_cnt else 1 in
            alloc_slab ~chunk ~nodes:t.sn ~base ()
      in
      t.dir.(k) <- Some s;
      t.live_cnt <- t.live_cnt + 1;
      if t.live_cnt > t.peak_live then t.peak_live <- t.live_cnt;
      s

let discard t k =
  if k < Array.length t.dir then
    match t.dir.(k) with
    | None -> ()
    | Some s ->
        t.dir.(k) <- None;
        t.free <- s :: t.free;
        t.live_cnt <- t.live_cnt - 1

(* Discarding recorded slabs is only sound once replay can rebuild
   them: a program is registered and the boundary-0 snapshot exists.
   An unbudgeted tape never reaches this test. *)
let can_discard t = t.replay_step <> None && t.nseg > 0 && t.snap_cnt > 0

let advance_recording t =
  let k = t.n / t.sn in
  let s =
    match if k < Array.length t.dir then t.dir.(k) else None with
    | Some s -> s (* re-entry inside a live slab: nothing to grow *)
    | None ->
        (* Make room first so the materialized count never exceeds the
           budget, even transiently; refuse the push when nothing can
           go. *)
        while t.live_cnt >= t.budget_slabs && can_discard t && t.live_lo < k do
          discard t t.live_lo;
          t.live_lo <- t.live_lo + 1
        done;
        if t.live_cnt >= t.budget_slabs then
          raise
            (Tape_intf.Budget_too_small
               { budget_nodes = t.budget_slabs * t.sn; needed_nodes = t.n + 1 });
        materialize t k
  in
  t.cur <- s;
  t.cur_end <- slab_end s.base t.sn

let advance_replaying t =
  let k = t.n / t.sn in
  if k > t.win_hi then raise Window_filled
  else if k >= t.win_lo then begin
    let s = materialize t k in
    t.cur <- s;
    t.cur_end <- slab_end s.base t.sn
  end
  else begin
    (* Below the window: the replayed nodes are not needed, so they land
       in scratch storage that is never swept. *)
    let scratch =
      match t.scratch with
      | Some s -> s
      | None ->
          let s = alloc_slab ~nodes:t.sn ~base:0 () in
          t.scratch <- Some s;
          s
    in
    scratch.base <- k * t.sn;
    t.cur <- scratch;
    t.cur_end <- (k + 1) * t.sn
  end

(* The push slow path: node [t.n] is at [cur_end]. *)
let advance t l r =
  check_live "Tape.push" t;
  match t.mode with
  | Replaying -> advance_replaying t
  | Recording ->
      let prelude = t.nseg = 0 && t.replay_step <> None in
      if prelude && (l >= 0 || r >= 0) then
        invalid_arg
          "Tape.push: non-constant node before the first start_segment (the \
           prelude is never replayed, so it may only hold inputs and \
           constants)";
      advance_recording t;
      (* Still in the prelude: check the next push too. *)
      if prelude then t.cur_end <- t.n + 1

let[@inline] store s j l r d =
  Bigarray.Array1.unsafe_set s.lhs j (Int32.of_int l);
  Bigarray.Array1.unsafe_set s.rhs j (Int32.of_int r);
  Bigarray.Array1.unsafe_set s.d j d

(* The overflow array of [s], attached at its first general node. *)
let attach_overflow t s =
  let o =
    if t.sn <> default_slab_nodes then alloc_f64 t.sn
    else
      (* Chunks double with the tape's overflow storage, as slabs do. *)
      take overflow_pool
        (fun count -> fresh_overflows ~nodes:t.sn ~count)
        ~chunk:t.overflow_slabs
  in
  s.ovf <- o;
  t.overflow_slabs <- t.overflow_slabs + 1;
  o

let[@inline] push1 t parent partial =
  let i = t.n in
  if i = t.cur_end then advance t parent (-1);
  let s = t.cur in
  store s (i - s.base) parent (-1) partial;
  t.n <- i + 1;
  i

(* An input (independent) variable: a parentless node. *)
let[@inline] fresh_var t = push1 t (-1) 0.

(* A constant side folds into a one-parent node, and an exact 1 or 0
   lhs partial into the rhs-partial kinds; only two general partials
   spill the rhs one into the overflow array.  [dl = 0.] also holds for
   -0 (see the top of this file for why that is exact). *)
let[@inline] push2 t l dl r dr =
  let i = t.n in
  if i = t.cur_end then advance t l r;
  let s = t.cur in
  let j = i - s.base in
  if r < 0 then store s j l (-1) dl
  else if l < 0 then store s j r (-1) dr
  (* lint: allow float-equality — an exact 1 lhs partial is implied by
     the node's kind, so only exact equality may drop it *)
  else if dl = 1. then store s j l (-2 - r) dr
  (* lint: allow float-equality — likewise for an exact 0 (or -0) *)
  else if dl = 0. then store s j (-2 - l) r dr
  else begin
    store s j l r dl;
    let o =
      if Bigarray.Array1.dim s.ovf = 0 then attach_overflow t s else s.ovf
    in
    Bigarray.Array1.unsafe_set o j dr
  end;
  t.n <- i + 1;
  i

let set_program t ~capture ~replay_step =
  check_live "Tape.set_program" t;
  if t.n > 0 then invalid_arg "Tape.set_program: tape already holds nodes";
  t.capture <- Some capture;
  t.replay_step <- Some replay_step;
  (* The prelude starts: every push takes the checked slow path. *)
  t.cur_end <- t.n

let ensure_boundary_capacity t s =
  if s >= Array.length t.marks then begin
    let cap = 2 * Array.length t.marks in
    let m = Array.make cap 0 in
    Array.blit t.marks 0 m 0 (Array.length t.marks);
    t.marks <- m;
    let sn = Array.make cap None in
    Array.blit t.snaps 0 sn 0 (Array.length t.snaps);
    t.snaps <- sn
  end

let take_snapshot t s =
  match t.capture with
  | None -> ()
  | Some cap ->
      if t.snaps.(s) = None then begin
        t.snaps.(s) <- Some (cap ());
        t.snap_cnt <- t.snap_cnt + 1;
        t.snapshots_taken <- t.snapshots_taken + 1
      end

let start_segment t =
  check_live "Tape.start_segment" t;
  if t.mode <> Recording then
    invalid_arg "Tape.start_segment: tape is replaying";
  let s = t.nseg in
  ensure_boundary_capacity t s;
  t.marks.(s) <- t.n;
  t.nseg <- s + 1;
  (* Leave the prelude's checked pushes (the slow path re-derives
     [cur_end] from [cur]'s slab). *)
  t.cur_end <- t.n;
  if s mod t.stride = 0 then begin
    if t.snap_cnt >= t.snapshot_slots then begin
      (* Out of slots: double the retention stride and evict the
         retained snapshots that fall off it (boundary 0 stays). *)
      t.stride <- 2 * t.stride;
      for b = 1 to s - 1 do
        if b mod t.stride <> 0 then
          match t.snaps.(b) with
          | None -> ()
          | Some _ ->
              t.snaps.(b) <- None;
              t.snap_cnt <- t.snap_cnt - 1
      done
    end;
    if s mod t.stride = 0 && t.snap_cnt < t.snapshot_slots then
      take_snapshot t s
  end

(* Binomial forward plan: absolute boundary indices at which one replay
   pass from [base] over [len] segments should drop snapshots, with
   [slots] free.  Splits follow the classic recompute-vs-store
   recurrence cost(l,c) = min_d d + cost(l-d, c-1) + cost(d, c); with no
   slots the pass restarts from [base] every time, cost l(l-1)/2.  The
   memo is local to the call — boundary counts are tiny. *)
let binomial_plan ~base ~len ~slots =
  if len <= 1 || slots <= 0 then []
  else begin
    let memo = Hashtbl.create 64 in
    let rec cost l c =
      if l <= 1 then 0
      else if c <= 0 then l * (l - 1) / 2
      else
        match Hashtbl.find_opt memo (l, c) with
        | Some (v, _) -> v
        | None ->
            let best = ref max_int and best_d = ref 1 in
            for d = 1 to l - 1 do
              let v = d + cost (l - d) (c - 1) + cost d c in
              if v < !best then begin
                best := v;
                best_d := d
              end
            done;
            Hashtbl.add memo (l, c) (!best, !best_d);
            !best
    in
    let split l c =
      ignore (cost l c);
      match Hashtbl.find_opt memo (l, c) with Some (_, d) -> d | None -> 1
    in
    let rec go pos l c acc =
      if l <= 1 || c <= 0 then List.rev acc
      else
        let d = split l c in
        go (pos + d) (l - d) (c - 1) ((pos + d) :: acc)
    in
    go base len slots []
  end

let diverged () =
  failwith
    "Tape.backward: replay diverged from the recording (the program is not \
     deterministic, or restart state is incomplete)"

(* Rematerialize every slab in [win_lo, win_hi]: restore the nearest
   snapshot at or below the window, then re-run program steps with
   pushes landing back on their recorded ids; pushes below the window
   land in scratch storage, pushes above it abort the pass. *)
let ensure_window t ~lo_node ~stop_node =
  let all_live = ref true in
  for k = t.win_lo to t.win_hi do
    if k >= Array.length t.dir || t.dir.(k) = None then all_live := false
  done;
  if not !all_live then begin
    let start_node = Stdlib.max (t.win_lo * t.sn) lo_node in
    let b = ref (-1) in
    for s = t.nseg - 1 downto 0 do
      if !b < 0 && t.snaps.(s) <> None && t.marks.(s) <= start_node then
        b := s
    done;
    if !b < 0 then
      failwith
        "Tape.backward: no snapshot covers a discarded segment (set_program \
         was not called before recording)";
    let base = !b in
    let restore =
      match t.snaps.(base) with Some r -> r | None -> assert false
    in
    restore ();
    t.replays <- t.replays + 1;
    t.mode <- Replaying;
    t.n <- t.marks.(base);
    t.cur_end <- t.n;
    let n_start = t.n in
    (* Segment index of the window top, for the capture plan: free
       slots go to binomial-optimal replay-time re-captures. *)
    let s_stop = ref base in
    for s = base + 1 to t.nseg - 1 do
      if t.marks.(s) <= stop_node then s_stop := s
    done;
    t.plan <-
      binomial_plan ~base ~len:(!s_stop - base)
        ~slots:(t.snapshot_slots - t.snap_cnt);
    let replay = match t.replay_step with Some r -> r | None -> assert false in
    (try
       let s = ref base in
       while t.n <= stop_node && !s < t.nseg do
         if t.n <> t.marks.(!s) then diverged ();
         (match t.plan with
         | p :: rest when p = !s ->
             t.plan <- rest;
             if t.snap_cnt < t.snapshot_slots then take_snapshot t !s
         | _ -> ());
         replay !s;
         if !s + 1 < t.nseg && t.n <> t.marks.(!s + 1) then diverged ();
         incr s
       done
     with Window_filled -> ());
    t.replayed_nodes <- t.replayed_nodes + (t.n - n_start);
    for k = t.win_lo to t.win_hi do
      if k >= Array.length t.dir || t.dir.(k) = None then
        failwith
          "Tape.backward: replay did not rematerialize the window (replay \
           produced fewer nodes than the recording)"
    done
  end

(* Budgeted sweep: slab windows of at most [budget_slabs], top-down,
   each rematerialized by replay if it was discarded and released once
   swept.  Returns the visited count. *)
let windowed_sweep t ~get_slab ~adj ~bits ~output =
  (* Nodes below the first boundary are the parentless prelude: they
     receive adjoints but propagate nothing, so the sweep stops at the
     first watermark and their storage is never consulted. *)
  let lo_node = if t.nseg > 0 then t.marks.(0) else 0 in
  let total = t.n in
  t.total <- total;
  let visited = ref 0 in
  if output >= lo_node then begin
    let k_hi = output / t.sn and k_lo = lo_node / t.sn in
    let pos = ref k_hi in
    while !pos >= k_lo do
      t.win_hi <- !pos;
      t.win_lo <- Stdlib.max k_lo (!pos - t.budget_slabs + 1);
      let w_hi_node = Stdlib.min output (((t.win_hi + 1) * t.sn) - 1) in
      let w_lo_node = Stdlib.max lo_node (t.win_lo * t.sn) in
      (* Frontier window skip: if no node in the window has received
         any adjoint contribution, the dense sweep would visit nothing
         here — skip the replay AND the sweep.  This is where sparsity
         pays the most: discarded windows of uncritical segments are
         never rematerialized at all.  Liveness is final because all
         windows above were already swept and contributions only ever
         land at lower ids. *)
      if range_live bits ~lo:w_lo_node ~hi:w_hi_node then begin
        ensure_window t ~lo_node ~stop_node:w_hi_node;
        visited :=
          !visited
          + frontier_scan ~get_slab ~sn:t.sn ~adj ~bits ~hi:w_hi_node
              ~lo:w_lo_node
      end;
      for k = t.win_lo to t.win_hi do
        discard t k
      done;
      pos := t.win_lo - 1
    done
  end;
  (* Leave the tape recordable again: length restored, next push
     rematerializes its slab. *)
  t.n <- total;
  t.mode <- Recording;
  t.cur_end <- total;
  t.live_lo <- total / t.sn;
  t.win_lo <- 0;
  t.win_hi <- max_int;
  !visited

(* Reverse sweep from [output].  One pass computes d output / d node for
   every node at or below [output] — this is what lets the analysis
   scrutinize every element of every checkpoint variable at once.  The
   sweep is frontier-driven (see the engine above): cost is
   proportional to the touched subgraph, not the tape, and the result
   is bitwise identical to the dense descending scan.

   The accumulator and bitmap are cached on the tape across sweeps, so
   a later [backward] on the same tape invalidates previously returned
   [adjoints].

   Safety of the unsafe accesses: [output < t.n] is checked once, node
   offsets stay inside their slab by the uniform-slab-size layout, and a
   parent id is always a node id recorded before its child, so
   [l, r < i <= output < dim adj]. *)
let backward t ~output =
  check_live "Tape.backward" t;
  if output < 0 || output >= t.n then
    invalid_arg "Tape.backward: output is not a tape node";
  let fr = obtain_frontier t.fr ~dim:(output + 1) in
  t.fr <- Some fr;
  let adj = fr.f_adj and bits = fr.f_bits in
  Bigarray.Array1.unsafe_set adj output 1.;
  set_bit bits output;
  let get_slab k = match t.dir.(k) with Some s -> s | None -> assert false in
  let visited =
    if t.budget_slabs = max_int then
      frontier_scan ~get_slab ~sn:t.sn ~adj ~bits ~hi:output ~lo:0
    else windowed_sweep t ~get_slab ~adj ~bits ~output
  in
  t.last <-
    Some { Tape_intf.visited_nodes = visited; swept_nodes = output + 1 };
  { adj; bits; upto = output }

(* Set of nodes the output depends on, as a bitset. *)
type reach = { reached : Bytes.t; reach_upto : int }

(* Dependence sweep: the frontier scan of [backward] over the same
   slabs, but on bits alone — a marked node propagates its mark to both
   parents whatever its partials, so a zero-valued partial still counts
   as a dependence.  Skipping unmarked runs 8 or 64 at a time is sound
   for the same reason as in the adjoint sweep: marks only land below
   the node being processed. *)
let reach t ~output =
  check_live "Tape.reach" t;
  if output < 0 || output >= t.n then
    invalid_arg
      (Printf.sprintf
         "Tape.reach: output node %d is not on the tape (%d node%s recorded)"
         output t.n
         (if t.n = 1 then "" else "s"));
  let get_slab k =
    match if k < Array.length t.dir then t.dir.(k) else None with
    | Some s -> s
    | None ->
        invalid_arg
          "Tape.reach: the tape discarded nodes below the output (record \
           without a memory budget)"
  in
  let bits = Bytes.make ((output / 8) + 1) '\000' in
  set_bit bits output;
  let visited = ref 0 in
  let k = ref (output / t.sn) in
  let s = ref (get_slab !k) in
  let i = ref output in
  while !i >= 0 do
    let ip = !i in
    let byte = ip lsr 3 in
    if ip land 7 = 7 && Bytes.unsafe_get bits byte = '\000' then
      if ip land 63 = 63 && byte >= 7 && Bytes.get_int64_ne bits (byte - 7) = 0L
      then i := ip - 64
      else i := ip - 8
    else begin
      if bit_set bits ip then begin
        incr visited;
        while ip < (!s).base do
          decr k;
          s := get_slab !k
        done;
        let sl = !s in
        let j = ip - sl.base in
        let l = Int32.to_int (Bigarray.Array1.unsafe_get sl.lhs j) in
        let r = Int32.to_int (Bigarray.Array1.unsafe_get sl.rhs j) in
        (* Both parents of a two-parent kind, whichever field carries
           the flag. *)
        if l >= 0 then begin
          set_bit bits l;
          if r >= 0 then set_bit bits r
          else if r < -1 then set_bit bits (-2 - r)
        end
        else if l < -1 then begin
          set_bit bits (-2 - l);
          set_bit bits r
        end
      end;
      i := ip - 1
    end
  done;
  t.last <-
    Some { Tape_intf.visited_nodes = !visited; swept_nodes = output + 1 };
  { reached = bits; reach_upto = output }

let reachable g id = id >= 0 && id <= g.reach_upto && bit_set g.reached id
let last_sweep t = t.last

(* Storage is retained for reuse: every slab goes back to the tape's
   freelist and the next pushes take it again. *)
let clear t =
  check_live "Tape.clear" t;
  for k = 0 to Array.length t.dir - 1 do
    discard t k
  done;
  Array.fill t.snaps 0 (Array.length t.snaps) None;
  t.n <- 0;
  t.total <- 0;
  t.nseg <- 0;
  t.snap_cnt <- 0;
  t.stride <- 1;
  t.plan <- [];
  t.mode <- Recording;
  t.cur_end <- 0;
  t.live_lo <- 0;
  t.win_lo <- 0;
  t.win_hi <- max_int;
  t.replays <- 0;
  t.replayed_nodes <- 0;
  t.snapshots_taken <- 0;
  t.peak_live <- t.live_cnt;
  (* The frontier cache is storage, not recording state: keep it. *)
  t.last <- None

(* Hand every default-size slab (live, free and scratch) to the
   domain's pool.  The tape keeps its length and statistics but refuses
   any further push, sweep, clear or release. *)
let release t =
  check_live "Tape.release" t;
  t.released <- true;
  Array.iter (Option.iter recycle_slab) t.dir;
  List.iter recycle_slab t.free;
  Option.iter recycle_slab t.scratch;
  Array.fill t.dir 0 (Array.length t.dir) None;
  t.free <- [];
  t.scratch <- None;
  t.live_cnt <- 0;
  t.fr <- None;
  t.cur_end <- t.n

type stats = {
  s_slab_nodes : int;
  s_total_nodes : int;
  s_segments : int;
  s_snapshots : int;
  s_replays : int;
  s_replayed_nodes : int;
  s_peak_live_nodes : int;
  s_overflow_slabs : int;
}

let stats t =
  {
    s_slab_nodes = t.sn;
    s_total_nodes = Stdlib.max t.total t.n;
    s_segments = t.nseg;
    s_snapshots = t.snapshots_taken;
    s_replays = t.replays;
    s_replayed_nodes = t.replayed_nodes;
    s_peak_live_nodes = t.peak_live * t.sn;
    s_overflow_slabs = t.overflow_slabs;
  }

(* A recording that keeps only its length: every push returns the next
   dense id, exactly as the tape would number the node. *)
module Counting = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let length t = t.n
  let capacity _ = 0
  let clear t = t.n <- 0

  let[@inline] fresh_var t =
    let id = t.n in
    t.n <- id + 1;
    id

  let[@inline] push1 t _ _ = fresh_var t
  let[@inline] push2 t _ _ _ _ = fresh_var t
end
