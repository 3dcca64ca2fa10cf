(* Budgeted tape: bitwise equivalence with the seed's dense tape
   ([Seed_tape], the independent reference) under random programs,
   budgets, and schedules, plus the budget/replay edge cases.

   The harness is a tiny register machine whose step replays are
   deterministic by construction — exactly the property the analyzer
   relies on (checkpoint variables are complete restart state). *)

open Scvad_ad

(* ------------------------------------------------------------------ *)
(* Register-machine programs                                           *)
(* ------------------------------------------------------------------ *)

type instr = { op : int; a : int; b : int; dst : int }

type prog = {
  ninputs : int;
  nregs : int;
  inputs : float array;
  segs : instr list array;
}

let exec (module S : Scalar.S with type t = Reverse.t) regs ins =
  List.iter
    (fun { op; a; b; dst } ->
      let x = regs.(a) and y = regs.(b) in
      let r =
        match op mod 7 with
        | 0 -> S.(x +. y)
        | 1 -> S.(x -. y)
        | 2 -> S.(x *. y)
        | 3 -> S.(sin x +. y)
        | 4 -> S.max x y
        | 5 -> S.((x *. of_float 0.5) +. cos y)
        | _ -> S.(min x y -. of_float 0.25)
      in
      regs.(dst) <- r)
    ins

(* Final output: the sum of the register file plus the original input
   nodes (so the output can never const-fold away even when every input
   register was overwritten), recorded after the last instruction of the
   last segment — it belongs to that segment's replay, like the
   verification reduction in the real apps. *)
let sum_regs (module S : Scalar.S with type t = Reverse.t) regs input_nodes =
  let acc = ref regs.(0) in
  for i = 1 to Array.length regs - 1 do
    acc := S.(!acc +. regs.(i))
  done;
  Array.iter (fun x -> acc := S.(!acc +. x)) input_nodes;
  !acc

let init_regs var_of prog =
  Array.init prog.nregs (fun i ->
      if i < prog.ninputs then var_of prog.inputs.(i)
      else Reverse.const (0.125 *. float_of_int (i + 1)))

(* Reference run on the seed tape, through the engine's push rules:
   output value, the adjoint of every input, the tape length, and the
   adjoint of any node. *)
let run_dense prog =
  let tape = Seed_tape.create () in
  let module R = Reverse.Record (Seed_tape) in
  let module S = R.Scalar_of (struct
    let tape = tape
  end) in
  let regs = init_regs (R.var tape) prog in
  let input_nodes = Array.sub regs 0 prog.ninputs in
  Array.iter (exec (module S) regs) prog.segs;
  let out = sum_regs (module S) regs input_nodes in
  let adj = Seed_tape.backward tape ~output:(Reverse.node_id out) in
  ( Reverse.value out,
    Array.init prog.ninputs (Seed_tape.adjoint adj),
    Seed_tape.length tape,
    Seed_tape.adjoint adj )

(* The engine under a budget; [capacity_hint] sets the slab size. *)
let run_segmented ?fan ?capacity_hint ?snapshot_slots ?schedule ~budget_nodes
    prog =
  let tape =
    Tape.create ?capacity_hint ?snapshot_slots ?schedule ~budget_nodes ()
  in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let nseg = Array.length prog.segs in
  let regs = Array.make prog.nregs (Reverse.const 0.) in
  let input_nodes = ref [||] in
  let out = ref (Reverse.const 0.) in
  let step s =
    exec (module S) regs prog.segs.(s);
    if s = nseg - 1 then out := sum_regs (module S) regs !input_nodes
  in
  Tape.set_program tape
    ~capture:(fun () ->
      let snap = Array.copy regs in
      fun () -> Array.blit snap 0 regs 0 (Array.length snap))
    ~replay_step:step;
  Array.blit (init_regs (Reverse.var tape) prog) 0 regs 0 prog.nregs;
  input_nodes := Array.sub regs 0 prog.ninputs;
  for s = 0 to nseg - 1 do
    Tape.start_segment tape;
    step s
  done;
  let adj = Tape.backward ?fan tape ~output:(Reverse.node_id !out) in
  ( Reverse.value !out,
    Array.init prog.ninputs (Tape.adjoint adj),
    Tape.stats tape,
    tape,
    Tape.adjoint adj )

let bits = Int64.bits_of_float

(* Bitwise equality, except that any NaN equals any NaN: random
   programs overflow to inf and breed NaNs, and IEEE leaves the sign
   and payload of a propagated NaN unspecified — two separately
   compiled but mathematically identical sweeps may legitimately pick
   different NaN bits (x86 mulsd keeps whichever operand the register
   allocator put first).  Criticality is unaffected: NaN magnitudes
   count as critical whatever their bits. *)
let same_float d s = bits d = bits s || (Float.is_nan d && Float.is_nan s)

let check_bitwise ~what dense seg =
  Array.iteri
    (fun i d ->
      if not (same_float d seg.(i)) then
        Alcotest.failf "%s: input %d: dense %.17g <> segmented %.17g" what i d
          seg.(i))
    dense

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)
(* ------------------------------------------------------------------ *)

let prog_gen =
  let open QCheck.Gen in
  let* nregs = int_range 2 6 in
  let* ninputs = int_range 1 nregs in
  let* inputs = array_size (return ninputs) (float_bound_exclusive 4.0) in
  let* nseg = int_range 1 8 in
  let instr =
    let* op = int_bound 1000 in
    let* a = int_bound (nregs - 1) in
    let* b = int_bound (nregs - 1) in
    let* dst = int_bound (nregs - 1) in
    return { op; a; b; dst }
  in
  let* segs = array_size (return nseg) (list_size (int_range 0 40) instr) in
  return { ninputs; nregs; inputs; segs }

let prog_print p =
  Printf.sprintf "{ninputs=%d; nregs=%d; segs=[|%s|]}" p.ninputs p.nregs
    (String.concat "; "
       (Array.to_list
          (Array.map (fun s -> string_of_int (List.length s)) p.segs)))

let setup_gen =
  let open QCheck.Gen in
  let* prog = prog_gen in
  let* budget = int_range 16 600 in
  let* slots = int_range 1 8 in
  return (prog, budget, slots)

let setup_print (p, budget, slots) =
  Printf.sprintf "%s budget=%d slots=%d" (prog_print p) budget slots

let prop_seg_equals_dense =
  QCheck.Test.make ~count:300
    ~name:"segmented backward bitwise equals dense (random programs)"
    (QCheck.make ~print:setup_print setup_gen)
    (fun (prog, budget, slots) ->
      let dv, dg, total, dadj = run_dense prog in
      let sv, sg, stats, _, sadj =
        run_segmented ~capacity_hint:16 ~snapshot_slots:slots
          ~budget_nodes:budget prog
      in
      if not (same_float dv sv) then
        QCheck.Test.fail_reportf "output: dense %.17g <> segmented %.17g" dv
          sv;
      (* Every node's adjoint, not just the inputs'. *)
      for id = 0 to total - 1 do
        if not (same_float (dadj id) (sadj id)) then
          QCheck.Test.fail_reportf "adjoint of node %d: dense %.17g <> %.17g"
            id (dadj id) (sadj id)
      done;
      check_bitwise ~what:"adjoints" dg sg;
      if stats.Tape.s_total_nodes <> total then
        QCheck.Test.fail_reportf "total nodes: dense %d <> segmented %d" total
          stats.Tape.s_total_nodes;
      (* The budget is enforced at slab granularity (at least one
         slab). *)
      let cap =
        Stdlib.max stats.Tape.s_slab_nodes
          (budget / stats.Tape.s_slab_nodes * stats.Tape.s_slab_nodes)
      in
      if stats.Tape.s_peak_live_nodes > cap then
        QCheck.Test.fail_reportf "peak live %d > budget cap %d"
          stats.Tape.s_peak_live_nodes cap;
      true)

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let fixed_prog =
  {
    ninputs = 3;
    nregs = 4;
    inputs = [| 1.5; -0.75; 2.25 |];
    segs =
      Array.init 5 (fun s ->
          List.init 30 (fun i ->
              {
                op = (s * 31) + i;
                a = i mod 4;
                b = (i + s) mod 4;
                dst = (i + 1) mod 4;
              }));
  }

let test_budget_ge_total_degenerates () =
  let dv, dg, total, _ = run_dense fixed_prog in
  let sv, sg, stats, _, _ =
    run_segmented ~capacity_hint:16 ~budget_nodes:(2 * total) fixed_prog
  in
  Alcotest.(check int) "no replays" 0 stats.Tape.s_replays;
  Alcotest.(check int) "no replayed nodes" 0
    stats.Tape.s_replayed_nodes;
  Alcotest.(check bool) "output bitwise" true (same_float dv sv);
  check_bitwise ~what:"adjoints" dg sg

let test_budget_below_one_segment () =
  (* One slab of live storage against ~120-node segments: every window
     but the last needs a replay pass, including windows inside a single
     segment. *)
  let dv, dg, _, _ = run_dense fixed_prog in
  let sv, sg, stats, _, _ =
    run_segmented ~capacity_hint:16 ~budget_nodes:16 fixed_prog
  in
  Alcotest.(check bool) "replays happened" true
    (stats.Tape.s_replays > 0);
  Alcotest.(check bool) "output bitwise" true (same_float dv sv);
  check_bitwise ~what:"adjoints" dg sg;
  Alcotest.(check int) "peak live = one slab" 16
    stats.Tape.s_peak_live_nodes

let test_replay_after_clear () =
  let dv, dg, _, _ = run_dense fixed_prog in
  let _, _, _, tape, _ =
    run_segmented ~capacity_hint:16 ~budget_nodes:64 fixed_prog
  in
  (* Re-record on the same tape after a clear; storage is reused and
     the second backward must still match dense bitwise. *)
  Tape.clear tape;
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let prog = fixed_prog in
  let nseg = Array.length prog.segs in
  let regs = Array.make prog.nregs (Reverse.const 0.) in
  Array.blit (init_regs (Reverse.var tape) prog) 0 regs 0 prog.nregs;
  let input_nodes = Array.sub regs 0 prog.ninputs in
  let out = ref (Reverse.const 0.) in
  for s = 0 to nseg - 1 do
    Tape.start_segment tape;
    exec (module S) regs prog.segs.(s);
    if s = nseg - 1 then out := sum_regs (module S) regs input_nodes
  done;
  let adj = Tape.backward tape ~output:(Reverse.node_id !out) in
  Alcotest.(check bool) "output bitwise" true (same_float dv (Reverse.value !out));
  check_bitwise ~what:"adjoints" dg
    (Array.init prog.ninputs (Tape.adjoint adj))

let test_create_validation () =
  Alcotest.check_raises "negative capacity_hint"
    (Invalid_argument "Tape.create: capacity_hint must be >= 0 (got -1)")
    (fun () -> ignore (Tape.create ~capacity_hint:(-1) ()));
  Alcotest.check_raises "non-positive budget"
    (Invalid_argument "Tape.create: budget_nodes must be >= 1 (got 0)")
    (fun () -> ignore (Tape.create ~budget_nodes:0 ()));
  Alcotest.check_raises "non-positive snapshot_slots"
    (Invalid_argument "Tape.create: snapshot_slots must be >= 1 (got 0)")
    (fun () -> ignore (Tape.create ~snapshot_slots:0 ~budget_nodes:64 ()));
  (* Small hints clamp up to one 16-node slab rather than failing, with
     or without a budget. *)
  let t = Tape.create ~capacity_hint:3 () in
  Alcotest.(check int) "clamped slab" 16 (Tape.slab_nodes t);
  let t = Tape.create ~capacity_hint:8 ~budget_nodes:64 () in
  Alcotest.(check int) "clamped budgeted slab" 16 (Tape.slab_nodes t)

let test_prelude_must_be_parentless () =
  let tape = Tape.create ~budget_nodes:64 () in
  Tape.set_program tape
    ~capture:(fun () -> fun () -> ())
    ~replay_step:(fun _ -> ());
  let x = Tape.fresh_var tape in
  Alcotest.(check bool) "raises before first boundary" true
    (try
       ignore (Tape.push1 tape x 1.);
       false
     with Invalid_argument _ -> true);
  (* The refused push left the prelude checked. *)
  Alcotest.(check bool) "raises again" true
    (try
       ignore (Tape.push2 tape (-1) 0. x 1.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "refused pushes record nothing" 1 (Tape.length tape);
  Tape.start_segment tape;
  ignore (Tape.push1 tape x 1.)

let suites =
  [
    ( "segtape",
      [
        Alcotest.test_case "budget >= total degenerates to dense" `Quick
          test_budget_ge_total_degenerates;
        Alcotest.test_case "budget below one segment" `Quick
          test_budget_below_one_segment;
        Alcotest.test_case "replay after clear" `Quick test_replay_after_clear;
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "prelude must be parentless" `Quick
          test_prelude_must_be_parentless;
        QCheck_alcotest.to_alcotest prop_seg_equals_dense;
      ] );
  ]
