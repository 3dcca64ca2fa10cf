(* Micro-benchmarks the end-to-end benchmark in perfbench/ cannot make.

   - Tape micro-chains of 1M nodes: push, an all-active backward sweep
     and a 1/64-sparse backward sweep, each timed on the unbudgeted
     [Scvad_ad.Tape] (the one tape engine: chunked slabs, frontier
     sweep) and on [Seed_tape] (test/seed), the seed's monolithic
     grow-by-doubling tape with a dense backward scan.  The engine's
     push is timed twice: into fresh storage, and into slabs a released
     tape left in the domain's pool.
   - A sparse backward over a 5M-node tape whose accumulator exceeds
     glibc's mmap threshold: the sweep's growth of [VmRSS] against the
     share of the accumulator the sweep reaches.
   - A 1M-node product/sum chain recorded through the operator front
     end ([Reverse.Scalar_of]) into recycled slabs: seconds and heap
     words ([Gc.minor_words]) per node.
   - One iteration of FT's plain-float production instance
     ([Ft.App.Float], what golden runs and restarts execute): seconds
     and heap words ([Gc.minor_words]) per stored grid cell.
   - [A.Float.create] of every app, the state a golden run or a restart
     builds first: seconds.
   - One full [Pruned.snapshot] and one full [Pruned.restore] of FT's
     plain-float state: seconds and heap words per grid cell.
   - The 8-benchmark [Analyzer.run_suite] at jobs=1 and at jobs=N
     (perfbench runs jobs=1 only), with the masks of both compared.
   - The static passes' walk ([Absint.analyze]) over every kernel model
     of lib/npb: seconds and interpretation steps summed over the files.

   Every time is the best of five runs.  Takes no arguments and prints
   one JSON object on stdout; ["correct"] is false when the two tapes
   disagree on an adjoint, when the sparse sweep grows [VmRSS] past its
   touched share plus slack, when recording through [Reverse] allocates
   more than 3 heap words per node, when an FT float iteration allocates
   more than 8 heap words per grid cell, when FT's full restore allocates
   more than 3.5 heap words per cell or its full snapshot more than 0.5,
   when the jobs=N masks differ
   from jobs=1, or when the static walk spends more than its step
   ceiling.

   Run with:  dune exec --profile release bench/main.exe
   python3 bench/ledger.py records its output in BENCH_<date>.json.    *)

module Crit = Scvad_core.Criticality
module Reverse = Scvad_ad.Reverse
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

(* Push throughput: the seed doubles and copies; the chunked tape adds
   16 slabs of 2^16 nodes without copying, either freshly allocated
   (tapes that are never released leave the pool empty) or recycled
   (each timed run releases its tape, so the next one writes into pages
   already mapped). *)
let push_pair () =
  let seed =
    time_min (fun () -> fill_seed ~on_spine:all_active (Seed_tape.create ()))
  in
  let chunked =
    time_min (fun () -> fill_chunked ~on_spine:all_active (Tape.create ()))
  in
  let recycled_run () =
    let t = Tape.create () in
    let out = fill_chunked ~on_spine:all_active t in
    Tape.release t;
    out
  in
  ignore (recycled_run ());
  let recycled = time_min recycled_run in
  Printf.sprintf "{\"seed_s\": %.6g, \"chunked_s\": %.6g, \"recycled_s\": %.6g}"
    seed chunked recycled

(* Backward over a recorded chain: the seed's dense scan against the
   frontier sweep; the input's adjoint must agree bitwise. *)
let backward_pair ~on_spine =
  let seed = Seed_tape.create () in
  let seed_out = fill_seed ~on_spine seed in
  let chunked = Tape.create () in
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

(* A sparse backward over a tape whose adjoint accumulator (8 B per
   node, 40 MB here) is past glibc's 32 MB mmap threshold, so it starts
   as fresh pages that cost nothing until written.  The output depends
   on the input and on a chain of [rss_cone] nodes at the top of the
   tape; everything below is dead fan-out.  A sweep that writes only the
   entries it reaches makes resident the chain's pages, the input's
   page and the bitmap (1 bit per node); a zero-filled accumulator would
   add all 40 MB.  The ceiling is that touched share plus 4 MB of slack
   for the allocator and the GC. *)
let rss_nodes = 5 lsl 20
let rss_cone = 1 lsl 16

let vm_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmRSS:" line ->
        Scanf.sscanf line "VmRSS: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let sparse_rss () =
  let t = Tape.create () in
  let v = Tape.fresh_var t in
  for _ = 2 to rss_nodes - rss_cone do
    ignore (Tape.push2 t v 1. v 1.)
  done;
  let last = ref v in
  for _ = 1 to rss_cone do
    last := Tape.push2 t !last 1. v 1.
  done;
  let before = vm_rss_mb () in
  let g = Tape.backward t ~output:!last in
  let delta = vm_rss_mb () -. before in
  let mb n = float_of_int n /. float_of_int (1 lsl 20) in
  let ceiling = mb ((8 * (rss_cone + 1)) + (rss_nodes / 8)) +. 4. in
  (* Every chain node passes 1 to the input, and the first one 1 more. *)
  if
    (not (Float.equal (Tape.adjoint g v) (float_of_int (rss_cone + 1))))
    || Float.is_nan delta || delta > ceiling
  then correct := false;
  Tape.release t;
  Printf.sprintf
    "{\"nodes\": %d, \"cone_nodes\": %d, \"accumulator_mb\": %.1f, \
     \"rss_delta_mb\": %.2f, \"ceiling_mb\": %.2f}"
    rss_nodes rss_cone (mb (8 * rss_nodes)) delta ceiling

(* Recording through [Reverse]: node i+1 multiplies node i by the input
   and node i+2 adds the input back.  Each node should cost its own
   3-word value and nothing else: a primal or partial boxed on its way
   to a slab adds 2 words per float per node.  The ceiling leaves 0.01
   word per node for the tape record and its slab records. *)
let words_ceiling = 3.01

let reverse_record () =
  let length = ref 0 in
  let run () =
    let tape = Tape.create () in
    let module S = Reverse.Scalar_of (struct
      let tape = tape
    end) in
    let x = Reverse.var tape 0.5 in
    let acc = ref x in
    for _ = 1 to (nodes - 1) / 2 do
      acc := S.((!acc *. x) +. x)
    done;
    length := Tape.length tape;
    Tape.release tape;
    !acc
  in
  ignore (run ());
  let s = time_min run in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (run ()));
  let words = (Gc.minor_words () -. w0) /. float_of_int !length in
  if words > words_ceiling then correct := false;
  Printf.sprintf
    "{\"s_per_node\": %.4g, \"words_per_node\": %.4f, \"nodes\": %d}"
    (s /. float_of_int !length) words !length

(* One FT iteration over plain floats: the evolve step rebuilds each
   dcomplex cell of [y] (3 words), while the FFT's interleaved work
   arrays allocate nothing.  A butterfly that built complex records
   would cost about 90 words per cell. *)
let ft_words_ceiling = 8.

let ft_float_step () =
  let module F = Scvad_npb.Ft.App.Float in
  let st = F.create () in
  let step () =
    let k = F.iterations_done st in
    F.run st ~from:k ~until:(k + 1)
  in
  step ();
  let s = time_min step in
  let w0 = Gc.minor_words () in
  step ();
  let words = (Gc.minor_words () -. w0) /. float_of_int Scvad_npb.Ft.cells in
  if words > ft_words_ceiling then correct := false;
  Printf.sprintf "{\"s\": %.6g, \"words_per_cell\": %.4f, \"cells\": %d}" s
    words Scvad_npb.Ft.cells

(* Building each app's plain-float state: CG generates its matrix and
   FT its initial field from the randlc stream, then transforms it. *)
let npb_create () =
  Printf.sprintf "{%s}"
    (String.concat ", "
       (List.map
          (fun (module A : Scvad_core.App.S) ->
            Printf.sprintf "\"%s\": %.6g" A.name
              (time_min (fun () -> A.Float.create ())))
          Scvad_npb.Suite.all))

(* A full FT checkpoint cycle through the span views: the snapshot
   reads each dcomplex cell straight into the packed payload (nothing
   allocated per cell), and the restore builds one 3-word cell per
   element.  Per-scalar accessors cost about 4 words per cell to
   snapshot and 10 to restore. *)
let restore_words_ceiling = 3.5
let snapshot_words_ceiling = 0.5

let restore_words () =
  let module F = Scvad_npb.Ft.App.Float in
  let module Pruned = Scvad_core.Pruned in
  let st = F.create () in
  let float_vars = F.float_vars st and int_vars = F.int_vars st in
  let snapshot () =
    Pruned.snapshot ~app:"ft" ~iteration:0 ~float_vars ~int_vars ()
  in
  let file = snapshot () in
  let restore () = Pruned.restore file ~float_vars ~int_vars in
  ignore (restore ());
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.minor_words () -. w0) /. float_of_int Scvad_npb.Ft.cells
  in
  let restore_w = words restore and snapshot_w = words snapshot in
  if restore_w > restore_words_ceiling || snapshot_w > snapshot_words_ceiling
  then correct := false;
  Printf.sprintf
    "{\"restore_s\": %.6g, \"restore_words_per_cell\": %.4f, \"snapshot_s\": \
     %.6g, \"snapshot_words_per_cell\": %.4f, \"cells\": %d}"
    (time_min restore) restore_w (time_min snapshot) snapshot_w
    Scvad_npb.Ft.cells

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

(* Loop bodies stop re-walking at the first pass that records no new
   fact and moves no cell older than the pass.  The walk spends 49,051
   steps over lib/npb that way.  Walking every body three times spent
   11.71M (3^d body walks for a depth-d nest), and counting the moves of
   a pass's own fresh cells (MG's [acc] refs) still spent 2.44M; the
   ceiling rejects both. *)
let static_steps_ceiling = 100_000

let static_walk () =
  let module Source = Scvad_lint.Source in
  let module Absint = Scvad_activity.Absint in
  let module Model = Scvad_activity.Model in
  let dir =
    match Scvad_activity.Driver.locate_npb_dir () with
    | Some d -> d
    | None -> failwith "static_walk: run from inside the repository"
  in
  let models =
    List.filter_map
      (fun file ->
        match Source.parse ~file (Source.read_file file) with
        | Ok ast ->
            let m = Model.of_structure ~file ast in
            if m.Model.app_name = None then None else Some m
        | Error _ -> None)
      (Source.ml_files dir)
  in
  let walk () =
    List.fold_left (fun acc m -> acc + (Absint.analyze m).Absint.o_steps) 0 models
  in
  let steps = walk () in
  let s = time_min walk in
  if steps > static_steps_ceiling then correct := false;
  Printf.sprintf "{\"s\": %.6g, \"steps\": %d, \"models\": %d}" s steps
    (List.length models)

let () =
  let jobs = Stdlib.max 2 (Scvad_par.Pool.default_jobs ()) in
  let push = push_pair () in
  let dense = backward_pair ~on_spine:all_active in
  let sparse = backward_pair ~on_spine:(fun i -> i mod 64 = 0) in
  let rss = sparse_rss () in
  let record = reverse_record () in
  let ft = ft_float_step () in
  let create = npb_create () in
  let restore = restore_words () in
  let suite = suite_pair jobs in
  let walk = static_walk () in
  Printf.printf
    "{\"hw_threads\": %d, \"correct\": %b,\n\
    \ \"tape_push_1M\": %s,\n\
    \ \"tape_backward_1M\": %s,\n\
    \ \"tape_backward_1M_sparse\": %s,\n\
    \ \"tape_backward_sparse_rss\": %s,\n\
    \ \"reverse_record_1M\": %s,\n\
    \ \"ft_float_step\": %s,\n\
    \ \"npb_create\": %s,\n\
    \ \"restore_words\": %s,\n\
    \ \"analyze_suite\": %s,\n\
    \ \"static_walk\": %s}\n"
    (Scvad_par.Pool.hardware_threads ())
    !correct push dense sparse rss record ft create restore suite walk
