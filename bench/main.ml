(* Micro-benchmarks the end-to-end benchmark in perfbench/ cannot make.

   - Tape micro-chains of 1M nodes: push, an all-active backward sweep
     and a 1/64-sparse backward sweep, each timed on the unbudgeted
     [Scvad_ad.Tape] (the one tape engine: chunked slabs, frontier
     sweep) and on [Seed_tape] (test/seed), the seed's monolithic
     grow-by-doubling tape with a dense backward scan.
   - The 8-benchmark [Analyzer.run_suite] at jobs=1 and at jobs=N
     (perfbench runs jobs=1 only), with the masks of both compared.

   Every time is the best of five runs.  Takes no arguments and prints
   one JSON object on stdout; ["correct"] is false when the two tapes
   disagree on an adjoint or the jobs=N masks differ from jobs=1.

   Run with:  dune exec --profile release bench/main.exe
   python3 bench/ledger.py records its output in BENCH_<date>.json.    *)

module Crit = Scvad_core.Criticality
module Tape = Scvad_ad.Tape

let nodes = 1 lsl 20

let time_min f =
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let correct = ref true

(* A chain from one input [v]: node i depends on i-1 and [v] when
   [on_spine i], else only on [v] (dead fan-out no adjoint reaches).
   Both tapes receive the same pushes, so node ids coincide. *)
let fill_seed ~on_spine t =
  let v = Seed_tape.push t (-1) 0. (-1) 0. in
  let last = ref v in
  for i = 2 to nodes do
    if on_spine i then last := Seed_tape.push t !last 1. v 1.
    else ignore (Seed_tape.push t v 1. v 1.)
  done;
  !last

let fill_chunked ~on_spine t =
  let v = Tape.fresh_var t in
  let last = ref v in
  for i = 2 to nodes do
    if on_spine i then last := Tape.push2 t !last 1. v 1.
    else ignore (Tape.push2 t v 1. v 1.)
  done;
  !last

let all_active _ = true

(* Push throughput: the seed doubles and copies, the chunked tape adds
   64 slabs of 2^14 nodes without copying. *)
let push_pair () =
  let seed =
    time_min (fun () -> fill_seed ~on_spine:all_active (Seed_tape.create ()))
  in
  let chunked =
    time_min (fun () ->
        fill_chunked ~on_spine:all_active (Tape.create ~capacity_hint:(1 lsl 14) ()))
  in
  Printf.sprintf "{\"seed_s\": %.6g, \"chunked_s\": %.6g}" seed chunked

(* Backward over a recorded chain: the seed's dense scan against the
   frontier sweep; the input's adjoint must agree bitwise. *)
let backward_pair ~on_spine =
  let seed = Seed_tape.create () in
  let seed_out = fill_seed ~on_spine seed in
  let chunked = Tape.create ~capacity_hint:nodes () in
  let chunked_out = fill_chunked ~on_spine chunked in
  let seed_s = time_min (fun () -> Seed_tape.backward seed ~output:seed_out) in
  let chunked_s = time_min (fun () -> Tape.backward chunked ~output:chunked_out) in
  let seed_adj = (Seed_tape.backward seed ~output:seed_out).{0} in
  let chunked_adj = Tape.adjoint (Tape.backward chunked ~output:chunked_out) 0 in
  if not (Float.equal seed_adj chunked_adj) then correct := false;
  let visited =
    match Tape.last_sweep chunked with
    | Some st -> st.Scvad_ad.Tape_intf.visited_nodes
    | None -> -1
  in
  Printf.sprintf
    "{\"seed_s\": %.6g, \"chunked_s\": %.6g, \"nodes\": %d, \"visited_nodes\": %d}"
    seed_s chunked_s nodes visited

(* The whole suite at jobs=1 and jobs=N; N is at least 2 so the pool's
   fan-out always runs, even on a one-thread host. *)
let suite_pair jobs =
  let last = ref [] in
  let wall j =
    time_min (fun () ->
        last :=
          Scvad_core.Analyzer.run_suite
            ~config:Scvad_core.Analyzer.Config.(default |> with_jobs j)
            Scvad_npb.Suite.all)
  in
  let masks () =
    List.concat_map
      (fun (r : Crit.report) ->
        List.map (fun (v : Crit.var_report) -> v.Crit.mask) r.Crit.vars)
      !last
  in
  let t1 = wall 1 in
  let m1 = masks () in
  let tape_nodes =
    List.fold_left (fun acc (r : Crit.report) -> acc + r.Crit.tape_nodes) 0 !last
  in
  let tn = wall jobs in
  if masks () <> m1 then correct := false;
  Printf.sprintf
    "{\"jobs1_s\": %.6g, \"jobsN_s\": %.6g, \"jobs\": %d, \"tape_nodes\": %d}"
    t1 tn jobs tape_nodes

let () =
  let jobs = Stdlib.max 2 (Scvad_par.Pool.default_jobs ()) in
  let push = push_pair () in
  let dense = backward_pair ~on_spine:all_active in
  let sparse = backward_pair ~on_spine:(fun i -> i mod 64 = 0) in
  let suite = suite_pair jobs in
  Printf.printf
    "{\"hw_threads\": %d, \"correct\": %b,\n\
    \ \"tape_push_1M\": %s,\n\
    \ \"tape_backward_1M\": %s,\n\
    \ \"tape_backward_1M_sparse\": %s,\n\
    \ \"analyze_suite\": %s}\n"
    (Scvad_par.Pool.hardware_threads ())
    !correct push dense sparse suite
