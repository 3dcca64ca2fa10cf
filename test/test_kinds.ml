(* Sixteen-byte tape slots: the node kinds the engine encodes in its
   two parent fields — a leaf, one parent, two parents with an implied
   lhs partial of 1 or 0, and two general partials whose rhs partial
   lives in the slab's overflow array — must sweep exactly as the seed
   tape's two stored partials do.

   Random push-level programs mix every kind: constants on either side,
   lhs partials of 1, 0 and -0, general pairs, a parent used twice
   ([x *. x], [x +. x]) and NaN and infinite partials.  They run on
   16-node slabs (many slab edges), on default-size slabs drawn from a
   pool that a previous tape left dirty (overflow arrays included), on
   slabs recycled by [clear] with the overflow of a previous recording
   still attached, and under a memory budget whose replays land below
   their window in scratch storage.  Every adjoint must equal
   [Seed_tape]'s bitwise (any NaN equals any NaN, see
   [Test_segtape.same_float]), and every reach bit must equal a dense
   scan of the seed tape's parent arrays. *)

open Scvad_ad

type node =
  | Leaf
  | One of int * float (* push1 *)
  | Two of int * float * int * float (* push2 *)

(* Node [k] of a program gets id [k]: the [ninputs] leaves of the
   prelude, then the segments in order. *)
type prog = { ninputs : int; segs : node array array }

let push_engine t = function
  | Leaf -> Tape.fresh_var t
  | One (p, d) -> Tape.push1 t p d
  | Two (l, dl, r, dr) -> Tape.push2 t l dl r dr

let push_seed t = function
  | Leaf -> Seed_tape.fresh_var t
  | One (p, d) -> Seed_tape.push1 t p d
  | Two (l, dl, r, dr) -> Seed_tape.push2 t l dl r dr

let total p =
  Array.fold_left (fun n s -> n + Array.length s) p.ninputs p.segs

let output p = total p - 1

(* Does the engine spill this node's rhs partial? *)
let general = function
  | Two (l, dl, r, _) -> l >= 0 && r >= 0 && dl <> 1. && dl <> 0.
  | Leaf | One _ -> false

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let partial_gen =
  let open QCheck.Gen in
  frequency
    [ (4, return 1.); (3, return 0.); (2, return (-0.)); (1, return Float.nan);
      (1, return Float.infinity); (1, return Float.neg_infinity);
      (8, oneofl [ 0.5; -1.; 0.75; -0.25; 2.; 1e-3; -3. ]) ]

(* A parent of node [id]: a constant, a recent node (long chains keep
   the output's cone large) or any earlier node. *)
let parent_gen id =
  let open QCheck.Gen in
  if id = 0 then return (-1)
  else
    frequency
      [ (1, return (-1));
        (6, map (fun k -> id - 1 - k) (int_bound (min (id - 1) 7)));
        (2, int_bound (id - 1)) ]

let node_gen id =
  let open QCheck.Gen in
  frequency
    [ (1, return Leaf);
      (2, map2 (fun p d -> One (p, d)) (parent_gen id) partial_gen);
      ( 7,
        let* l = parent_gen id in
        let* dl = partial_gen in
        let* r = frequency [ (1, return l); (4, parent_gen id) ] in
        let* dr = partial_gen in
        return (Two (l, dl, r, dr)) ) ]

let nodes_gen ~first n =
  let open QCheck.Gen in
  let rec go id k acc =
    if k = 0 then return (Array.of_list (List.rev acc))
    else
      let* nd = node_gen id in
      go (id + 1) (k - 1) (nd :: acc)
  in
  go first n []

let prog_gen =
  let open QCheck.Gen in
  let* ninputs = int_range 1 4 in
  let* lens = list_size (int_range 1 6) (int_range 0 60) in
  let rec segs first acc = function
    | [] -> return (Array.of_list (List.rev acc))
    | n :: rest ->
        let* s = nodes_gen ~first n in
        segs (first + n) (s :: acc) rest
  in
  let* segs = segs ninputs [] lens in
  return { ninputs; segs }

let setup_gen =
  let open QCheck.Gen in
  let* p = prog_gen in
  let* budget = int_range 16 96 in
  let* slots = int_range 1 4 in
  return (p, budget, slots)

let setup_print (p, budget, slots) =
  Printf.sprintf "{ninputs=%d; segs=[|%s|]} budget=%d slots=%d" p.ninputs
    (String.concat "; "
       (Array.to_list
          (Array.map (fun s -> string_of_int (Array.length s)) p.segs)))
    budget slots

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let record push t p =
  for _ = 1 to p.ninputs do
    ignore (push t Leaf)
  done;
  Array.iter (Array.iter (fun nd -> ignore (push t nd))) p.segs

(* The reference: the seed tape's dense sweep, and a dense reach scan
   over its parent arrays. *)
let seed_run p =
  let t = Seed_tape.create () in
  record push_seed t p;
  let out = output p in
  let adj = Seed_tape.backward t ~output:out in
  let reached = Array.make (out + 1) false in
  reached.(out) <- true;
  for i = out downto 0 do
    if reached.(i) then begin
      let l = Int32.to_int t.Seed_tape.lhs.{i} in
      if l >= 0 then reached.(l) <- true;
      let r = Int32.to_int t.Seed_tape.rhs.{i} in
      if r >= 0 then reached.(r) <- true
    end
  done;
  (Seed_tape.adjoint adj, reached)

(* The seed's visited count: nodes whose adjoint was nonzero when its
   dense scan reached them. *)
let seed_visited p adj =
  let n = ref 0 in
  for i = 0 to output p do
    if adj i <> 0. then incr n
  done;
  !n

(* Leave two default-size slabs on top of this domain's pools, with an
   overflow array each: general nodes with NaN partials and wrong
   parents that still precede their slot. *)
let dirty_pools () =
  let t = Tape.create () in
  let sn = Tape.slab_nodes t in
  for i = 0 to (2 * sn) - 1 do
    ignore (Tape.push2 t (i mod sn / 2) Float.nan (i mod sn / 3) Float.nan)
  done;
  Tape.release t

type engine = { adj : int -> float; reach : int -> bool; tape : Tape.t }

(* Unbudgeted engine run on [t], which holds no node yet. *)
let dense_run t p =
  record push_engine t p;
  let out = output p in
  let g = Tape.backward t ~output:out in
  let visited =
    match Tape.last_sweep t with
    | Some s -> s.Tape_intf.visited_nodes
    | None -> -1
  in
  let r = Tape.reach t ~output:out in
  ({ adj = Tape.adjoint g; reach = Tape.reachable r; tape = t }, visited)

(* Budgeted engine run: the prelude's leaves, then one segment per
   program step, replayed by re-pushing the step's nodes. *)
let budgeted_run ~budget ~slots p =
  let t =
    Tape.create ~capacity_hint:16 ~budget_nodes:budget ~snapshot_slots:slots
      ()
  in
  let step s = Array.iter (fun nd -> ignore (push_engine t nd)) p.segs.(s) in
  Tape.set_program t ~capture:(fun () () -> ()) ~replay_step:step;
  for _ = 1 to p.ninputs do
    ignore (Tape.fresh_var t)
  done;
  Array.iteri
    (fun s _ ->
      Tape.start_segment t;
      step s)
    p.segs;
  let g = Tape.backward t ~output:(output p) in
  (Tape.adjoint g, Tape.stats t)

(* Slabs of [p]'s program that hold a general node, at [sn] nodes per
   slab. *)
let general_slabs ~sn p =
  let slabs = Hashtbl.create 8 in
  let id = ref p.ninputs in
  Array.iter
    (Array.iter (fun nd ->
         if general nd then Hashtbl.replace slabs (!id / sn) ();
         incr id))
    p.segs;
  Hashtbl.length slabs

let same_float = Test_segtape.same_float

let check_adjoints what p seed_adj adj =
  for id = 0 to output p do
    if not (same_float (seed_adj id) (adj id)) then
      QCheck.Test.fail_reportf "%s: adjoint of node %d: %h <> seed %h" what id
        (adj id) (seed_adj id)
  done

let check_engine what p (seed_adj, seed_reach) (e, visited) =
  check_adjoints what p seed_adj e.adj;
  for id = 0 to output p do
    if seed_reach.(id) <> e.reach id then
      QCheck.Test.fail_reportf "%s: reach of node %d: %b <> seed %b" what id
        (e.reach id) seed_reach.(id)
  done;
  let sv = seed_visited p seed_adj in
  if visited <> sv then
    QCheck.Test.fail_reportf "%s: visited %d <> seed %d" what visited sv

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_kinds_equal_seed =
  QCheck.Test.make ~count:300
    ~name:"every node kind sweeps and reaches as the seed tape"
    (QCheck.make ~print:setup_print setup_gen)
    (fun (p, budget, slots) ->
      let seed = seed_run p in
      (* Fresh 16-node slabs: the overflow arrays are exactly one per
         slab that holds a general node. *)
      let fresh = dense_run (Tape.create ~capacity_hint:16 ()) p in
      check_engine "16-node slabs" p seed fresh;
      let attached = (Tape.stats (fst fresh).tape).Tape.s_overflow_slabs in
      let expected = general_slabs ~sn:16 p in
      if attached <> expected then
        QCheck.Test.fail_reportf "overflow arrays %d <> general slabs %d"
          attached expected;
      (* The same slabs after [clear]: each keeps the overflow array of
         the recording before, which the next pushes overwrite. *)
      let t = (fst fresh).tape in
      Tape.clear t;
      record push_engine t
        { ninputs = 1;
          segs = [| Array.init (total p) (fun i ->
                        Two (i / 2, Float.nan, i / 3, Float.nan)) |] };
      Tape.clear t;
      check_engine "slabs recycled by clear" p seed (dense_run t p);
      (* Default-size slabs and overflow arrays from dirty pools. *)
      dirty_pools ();
      let pooled = dense_run (Tape.create ()) p in
      check_engine "pooled slabs" p seed pooled;
      Tape.release (fst pooled).tape;
      Tape.release t;
      let adj, _ = budgeted_run ~budget ~slots p in
      check_adjoints "budgeted" p (fst seed) adj;
      true)

(* ------------------------------------------------------------------ *)
(* Fixed cases                                                         *)
(* ------------------------------------------------------------------ *)

(* A long program with every kind in every slab: the budgeted sweep of
   one 16-node slab with one snapshot slot replays each window from
   boundary 0, so every earlier node lands in scratch storage, general
   ones in scratch's overflow array. *)
let fixed_prog =
  let kinds id =
    match id mod 8 with
    | 0 -> Leaf
    | 1 -> Two (id - 2, 1., id - 1, -0.5)
    | 2 -> One (id - 1, -0.5)
    | 3 -> Two (-1, 3., id - 1, 0.25)
    | 4 -> Two (id - 1, 0., id - 3, 2.)
    | 5 -> Two (id - 1, 0.5, id - 1, 0.5)
    | 6 -> Two (id - 1, -0., id - 4, 1.5)
    | _ -> Two (id - 1, 0.75, -1, 9.)
  in
  { ninputs = 3;
    segs =
      Array.init 8 (fun s -> Array.init 40 (fun i -> kinds (3 + (s * 40) + i)))
  }

let test_replay_into_scratch () =
  let seed_adj, _ = seed_run fixed_prog in
  let adj, stats = budgeted_run ~budget:16 ~slots:1 fixed_prog in
  for id = 0 to output fixed_prog do
    Alcotest.(check bool)
      (Printf.sprintf "adjoint of node %d" id)
      true
      (same_float (seed_adj id) (adj id))
  done;
  Alcotest.(check bool) "replays reached back to boundary 0" true
    (stats.Tape.s_replayed_nodes > total fixed_prog);
  Alcotest.(check bool) "scratch and windows held general nodes" true
    (stats.Tape.s_overflow_slabs > 0)

(* Each kind alone, with the products a two-partial layout forms. *)
let test_each_kind () =
  let t = Tape.create ~capacity_hint:16 () in
  let x = Tape.fresh_var t and y = Tape.fresh_var t in
  let one = Tape.push2 t x 1. y 2. in
  let zero = Tape.push2 t x (-0.) y 3. in
  let gen = Tape.push2 t x 0.5 y 4. in
  let lhs_const = Tape.push2 t (-1) 7. x 5. in
  let rhs_const = Tape.push2 t y 6. (-1) 7. in
  let sq = Tape.push2 t x 1.5 x 1.5 in
  let sum = Tape.push2 t one 1. zero 1. in
  let sum = Tape.push2 t sum 1. gen 1. in
  let sum = Tape.push2 t sum 1. lhs_const 1. in
  let sum = Tape.push2 t sum 1. rhs_const 1. in
  let out = Tape.push2 t sum 1. sq 1. in
  let g = Tape.backward t ~output:out in
  (* x: 1 + (-0) + 0.5 + 5 + (1.5 + 1.5); y: 2 + 3 + 4 + 6. *)
  Alcotest.(check (float 0.)) "d out / d x" 9.5 (Tape.adjoint g x);
  Alcotest.(check (float 0.)) "d out / d y" 15. (Tape.adjoint g y);
  Alcotest.(check int) "one general slab" 1
    (Tape.stats t).Tape.s_overflow_slabs;
  let r = Tape.reach t ~output:zero in
  Alcotest.(check bool) "an implied 0 partial is still an edge" true
    (Tape.reachable r x && Tape.reachable r y);
  (* An infinite adjoint times an implied 0 partial is NaN, as it is
     times a stored one. *)
  let t = Tape.create () in
  let x = Tape.fresh_var t and y = Tape.fresh_var t in
  let z = Tape.push2 t x 0. y 1. in
  let out = Tape.push1 t z Float.infinity in
  let g = Tape.backward t ~output:out in
  Alcotest.(check bool) "inf * implied 0 is NaN" true
    (Float.is_nan (Tape.adjoint g x));
  Alcotest.(check int) "no overflow for FT-like nodes" 0
    (Tape.stats t).Tape.s_overflow_slabs;
  Tape.release t

let suites =
  [
    ( "tape-kinds",
      [
        Alcotest.test_case "each kind's products" `Quick test_each_kind;
        Alcotest.test_case "budgeted replay into scratch" `Quick
          test_replay_into_scratch;
        QCheck_alcotest.to_alcotest prop_kinds_equal_seed;
      ] );
  ]
