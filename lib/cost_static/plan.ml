(* Snapshot-placement planning from predicted segment costs.

   The segmented tape normally decides where to snapshot on the fly
   (doubling-stride retention, binomial replay-time re-captures) because it
   cannot know the future: segment node counts only exist once the
   segments have run.  The static cost model removes that ignorance —
   {!Predict} hands us every segment's node count before any recording
   — so snapshot placement becomes an offline optimization:

   - [place] picks boundaries by a weighted partition DP: the backward
     sweep proceeds top-down over storage windows of [W] nodes, and a
     snapshot chunk holding [C] nodes costs about [C^2 / 2W] replayed
     nodes (each of its ~C/W windows replays from the chunk head, on
     average half the chunk away).  Minimizing the sum over at most
     [snapshot_slots] chunks is a classic 1-D partition DP.

   - [simulate] then predicts what a budgeted `Tape` will actually do
     with those boundaries: it mirrors the recording-time slab
     retention, the top-down window sweep, nearest-snapshot replay,
     mid-segment window-filled aborts, and binomial replay-time
     re-captures, at slab granularity.  The one thing it cannot know
     is adjoint sparsity — the real sweep skips windows no adjoint
     reaches — so replay predictions are exact for a dense sweep and
     upper bounds otherwise.  Peak-live predictions are exact either
     way (the budget caps materialization, sparsity only lowers
     traffic). *)

type t = {
  boundaries : int list;  (** snapshot boundaries, ascending from 0 *)
  slab_nodes : int;
  budget_slabs : int;
  total_nodes : int;  (** prelude + segments *)
  peak_live_nodes : int;  (** predicted peak materialized slots *)
  replays : int;  (** predicted replay passes (dense sweep) *)
  replayed_nodes : int;  (** predicted re-pushed nodes (dense sweep) *)
}

(* Mirrors Tape.create's budgeted slab sizing (tape.mli documents the
   formula); the planner must agree with the tape it plans for, which
   the segmented-tape property tests assert. *)
let default_slab_nodes ~budget_nodes =
  Stdlib.max 16 (Stdlib.min 65536 (budget_nodes / 8))

(* Same recurrence as Tape.binomial_plan: absolute boundary
   indices where a replay pass from [base] over [len] segments should
   drop snapshots, with [slots] free. *)
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

(* Partition the segments into at most [chunks] contiguous chunks
   (snapshot at each chunk head) minimizing the summed quadratic replay
   cost.  O(nseg^2 * chunks) with prefix sums — boundary counts are a
   few hundred at most. *)
let place ~segments ~window_nodes ~chunks =
  let n = Array.length segments in
  if n = 0 then [ 0 ]
  else begin
    let chunks = Stdlib.max 1 (Stdlib.min chunks n) in
    let prefix = Array.make (n + 1) 0. in
    for i = 0 to n - 1 do
      prefix.(i + 1) <- prefix.(i) +. float_of_int segments.(i)
    done;
    let w = float_of_int (Stdlib.max 1 window_nodes) in
    let chunk_cost i j =
      (* replay cost of one chunk covering segments [i, j) *)
      let c = prefix.(j) -. prefix.(i) in
      c *. c /. (2. *. w)
    in
    (* best.(c).(j) = min cost of covering segments [0, j) with c chunks *)
    let inf = Float.max_float in
    let best = Array.make_matrix (chunks + 1) (n + 1) inf in
    let cut = Array.make_matrix (chunks + 1) (n + 1) 0 in
    best.(0).(0) <- 0.;
    for c = 1 to chunks do
      best.(c).(0) <- 0.;
      for j = 1 to n do
        for i = c - 1 to j - 1 do
          if best.(c - 1).(i) < inf then begin
            let v = best.(c - 1).(i) +. chunk_cost i j in
            if v < best.(c).(j) then begin
              best.(c).(j) <- v;
              cut.(c).(j) <- i
            end
          end
        done
      done
    done;
    (* fewer chunks can never beat more (empty chunks are free), so read
       the full-slot row back *)
    let rec walk c j acc =
      if j = 0 then acc
      else
        let i = cut.(c).(j) in
        walk (c - 1) i (i :: acc)
    in
    let bs = walk chunks n [] in
    (* dedup (empty chunks repeat a boundary) and anchor at 0 *)
    let bs = List.sort_uniq Stdlib.compare (0 :: bs) in
    List.filter (fun b -> b < n) bs
  end

(* Predict the stats of a dense backward sweep over a Planned recording:
   a slab-granular re-enactment of the budgeted Tape's recording retention
   and window replay logic. *)
let simulate ~prelude ~segments ~boundaries ~slab_nodes ~budget_slabs
    ~snapshot_slots =
  let nseg = Array.length segments in
  let sn = slab_nodes in
  let marks = Array.make (nseg + 1) prelude in
  for s = 0 to nseg - 1 do
    marks.(s + 1) <- marks.(s) + segments.(s)
  done;
  let total = marks.(nseg) in
  (* snapshots taken while recording: the planned boundaries, first
     [snapshot_slots] of them *)
  let snaps = Hashtbl.create 16 in
  List.iteri
    (fun i b -> if i < snapshot_slots && b < nseg then Hashtbl.replace snaps b ())
    boundaries;
  let snap_cnt = ref (Hashtbl.length snaps) in
  (* --- recording: trailing-window retention ----------------------- *)
  let live = Hashtbl.create 64 in
  let live_cnt = ref 0 and live_lo = ref 0 and peak = ref 0 in
  let materialize k =
    if not (Hashtbl.mem live k) then begin
      Hashtbl.replace live k ();
      incr live_cnt;
      if !live_cnt > !peak then peak := !live_cnt
    end
  in
  let release k =
    if Hashtbl.mem live k then begin
      Hashtbl.remove live k;
      decr live_cnt
    end
  in
  materialize 0;
  let k_max = if total = 0 then 0 else (total - 1) / sn in
  (* discarding needs a boundary and the boundary-0 snapshot, exactly
     like Tape.can_discard; both exist once the first segment
     with a planned 0-snapshot has started, i.e. for any node at or
     beyond marks.(0) *)
  for k = 1 to k_max do
    let can_discard = nseg > 0 && !snap_cnt > 0 && k * sn >= marks.(0) in
    while !live_cnt >= budget_slabs && can_discard && !live_lo < k do
      release !live_lo;
      incr live_lo
    done;
    materialize k
  done;
  (* --- backward: top-down windows, replay on miss ------------------ *)
  let replays = ref 0 and replayed = ref 0 in
  if total > 0 && nseg > 0 then begin
    let output = total - 1 in
    let lo_node = marks.(0) in
    if output >= lo_node then begin
      let k_hi = output / sn and k_lo = lo_node / sn in
      let pos = ref k_hi in
      while !pos >= k_lo do
        let win_hi = !pos in
        let win_lo = Stdlib.max k_lo (win_hi - budget_slabs + 1) in
        let w_hi_node = Stdlib.min output (((win_hi + 1) * sn) - 1) in
        let all_live = ref true in
        for k = win_lo to win_hi do
          if not (Hashtbl.mem live k) then all_live := false
        done;
        if not !all_live then begin
          let start_node = Stdlib.max (win_lo * sn) lo_node in
          let base = ref (-1) in
          for s = nseg - 1 downto 0 do
            if !base < 0 && Hashtbl.mem snaps s && marks.(s) <= start_node
            then base := s
          done;
          let base = if !base < 0 then 0 else !base in
          incr replays;
          let stop_node = w_hi_node in
          let s_stop = ref base in
          for s = base + 1 to nseg - 1 do
            if marks.(s) <= stop_node then s_stop := s
          done;
          let recapture =
            binomial_plan ~base ~len:(!s_stop - base)
              ~slots:(snapshot_slots - !snap_cnt)
          in
          let plan = ref recapture in
          let n = ref marks.(base) and s = ref base in
          let filled = (win_hi + 1) * sn in
          (try
             while !n <= stop_node && !s < nseg do
               (match !plan with
               | p :: rest when p = !s ->
                   plan := rest;
                   if !snap_cnt < snapshot_slots && not (Hashtbl.mem snaps !s)
                   then begin
                     Hashtbl.replace snaps !s ();
                     incr snap_cnt
                   end
               | _ -> ());
               let seg_end = marks.(!s + 1) in
               (* pushes materialize window slabs as they cross them *)
               let from_k = Stdlib.max win_lo (!n / sn) in
               let to_k =
                 Stdlib.min win_hi ((Stdlib.min seg_end filled - 1) / sn)
               in
               for k = from_k to to_k do
                 materialize k
               done;
               if seg_end > filled then begin
                 (* the push at [filled] would cross above the window:
                    Window_filled aborts the pass mid-segment *)
                 n := filled;
                 raise Exit
               end;
               n := seg_end;
               incr s
             done
           with Exit -> ());
          replayed := !replayed + (!n - marks.(base))
        end;
        for k = win_lo to win_hi do
          release k
        done;
        pos := win_lo - 1
      done
    end
  end;
  (!peak, !replays, !replayed)

(* [make ~prelude ~segments ~budget_nodes ()] plans snapshot placement
   for a recording of [prelude] parentless lift nodes followed by the
   given per-segment node counts, under the same budget and slot
   parameters `Tape.create` would receive. *)
let make ?slab_nodes ?(snapshot_slots = 32) ~prelude ~segments ~budget_nodes
    () =
  if budget_nodes < 1 then invalid_arg "Plan.make: budget_nodes must be >= 1";
  if snapshot_slots < 1 then
    invalid_arg "Plan.make: snapshot_slots must be >= 1";
  let sn =
    match slab_nodes with
    | Some s when s < 16 -> invalid_arg "Plan.make: slab_nodes must be >= 16"
    | Some s -> s
    | None -> default_slab_nodes ~budget_nodes
  in
  let budget_slabs = Stdlib.max 1 (budget_nodes / sn) in
  let boundaries =
    place ~segments ~window_nodes:(budget_slabs * sn) ~chunks:snapshot_slots
  in
  let peak, replays, replayed =
    simulate ~prelude ~segments ~boundaries ~slab_nodes:sn ~budget_slabs
      ~snapshot_slots
  in
  {
    boundaries;
    slab_nodes = sn;
    budget_slabs;
    total_nodes = prelude + Array.fold_left ( + ) 0 segments;
    peak_live_nodes = peak * sn;
    replays;
    replayed_nodes = replayed;
  }

(* Plan directly from a prediction: the analyzer's segmented protocol
   computes the output reduction inside the last analyzed iteration, so
   the output nodes belong to the final segment. *)
let of_prediction ?slab_nodes ?snapshot_slots (p : Predict.t) ~budget_nodes =
  let segments = Array.copy p.Predict.p_segments in
  let n = Array.length segments in
  if n > 0 then segments.(n - 1) <- segments.(n - 1) + p.Predict.p_output;
  make ?slab_nodes ?snapshot_slots ~prelude:p.Predict.p_lift ~segments
    ~budget_nodes ()
