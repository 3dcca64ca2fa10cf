(* Tests for the domain pool and the parallel scrutiny engine:
   ordering, exception propagation, nesting, and the acceptance
   criterion that [analyze_suite ~jobs:4] is bit-identical to
   [~jobs:1] on every NPB benchmark. *)

module Pool = Scvad_par.Pool
module Crit = Scvad_core.Criticality

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let with_pool4 f = Pool.with_pool ~jobs:4 f

let test_map_ordering () =
  with_pool4 (fun pool ->
      let xs = List.init 500 Fun.id in
      let got = Pool.map pool (fun x -> x * x) xs in
      Alcotest.(check (list int)) "results in input order"
        (List.map (fun x -> x * x) xs)
        got)

let test_map_jobs1_sequential () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (list int)) "jobs=1 degenerates to List.map"
        [ 2; 4; 6 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_map_empty_and_singleton () =
  with_pool4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.map pool succ [ 7 ]))

exception Boom of int

let test_map_exception () =
  with_pool4 (fun pool ->
      let raised =
        try
          ignore
            (Pool.map pool
               (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
               (List.init 20 succ));
          None
        with Boom x -> Some x
      in
      (* First failure in input-index order: 3. *)
      Alcotest.(check (option int)) "first exception wins" (Some 3) raised)

(* A named frame for the backtrace to carry across the domain
   boundary. *)
let[@inline never] planted_failure x = raise (Boom x)

let test_exception_backtrace_survives () =
  (* The pool re-raises with [Printexc.raise_with_backtrace], so the
     caller sees the worker's original raise site, not the pool's
     re-raise site. *)
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace was)
    (fun () ->
      with_pool4 (fun pool ->
          let bt =
            try
              ignore
                (Pool.map pool
                   (fun x -> if x = 3 then planted_failure x else x)
                   [ 1; 2; 3; 4; 5 ]);
              ""
            with Boom _ -> Printexc.get_backtrace ()
          in
          Alcotest.(check bool)
            "backtrace names the worker's raise site" true
            (Astring.String.is_infix ~affix:"test_par" bt)))

let test_nested_map_exception () =
  (* A failure inside an in-worker nested map must surface as the outer
     shard's failure, and the outer map still picks the first failing
     shard in input order (row 2, not row 3). *)
  with_pool4 (fun pool ->
      let raised =
        try
          ignore
            (Pool.map pool
               (fun row ->
                 Pool.map pool
                   (fun x -> if x = row then raise (Boom (10 * row)) else x)
                   [ 1; 2; 3 ])
               [ 2; 3; 5 ]);
          None
        with Boom x -> Some x
      in
      Alcotest.(check (option int)) "first outer shard's nested failure"
        (Some 20) raised)

let test_map_after_shutdown () =
  let pool = Pool.create ~jobs:4 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "map on closed pool"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool succ [ 1; 2 ]))

let test_nested_map () =
  with_pool4 (fun pool ->
      let got =
        Pool.map pool
          (fun row -> Pool.map pool (fun x -> (10 * row) + x) [ 1; 2; 3 ])
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list (list int)))
        "nested maps compute correctly"
        [ [ 11; 12; 13 ]; [ 21; 22; 23 ]; [ 31; 32; 33 ]; [ 41; 42; 43 ] ]
        got)

(* A nested map or init inside a jobs=4 map runs inline whichever
   domain picked up its outer task, the submitting one included: with
   the sanitizer armed, every outer map is the only batch it starts. *)
let test_nested_never_batches () =
  let module Sanitize = Scvad_sanitize.Sanitize in
  let outer = 20 in
  let stats =
    with_pool4 (fun pool ->
        Sanitize.arm ();
        Fun.protect
          ~finally:(fun () ->
            if Sanitize.armed () then ignore (Sanitize.disarm ()))
          (fun () ->
            for _ = 1 to outer do
              ignore
                (Pool.map pool
                   (fun row ->
                     ignore (Pool.map pool (fun x -> row + x) [ 1; 2; 3 ]);
                     Pool.init pool 3 (fun i -> row * i))
                   [ 1; 2; 3; 4; 5; 6; 7; 8 ])
            done;
            Sanitize.disarm ()))
  in
  Alcotest.(check int) "one batch per outer map" outer stats.Sanitize.batches

let test_init () =
  with_pool4 (fun pool ->
      let got = Pool.init pool 100 (fun i -> i * 3) in
      Alcotest.(check (array int)) "init slots" (Array.init 100 (fun i -> i * 3)) got)

let test_map_actually_parallel () =
  (* All four workers must be in flight at once for the rendezvous to
     complete; a sequential pool would deadlock, so guard with a
     generous timeout via a counter spin instead of a barrier wait. *)
  with_pool4 (fun pool ->
      let arrived = Atomic.make 0 in
      let got =
        Pool.map pool
          (fun i ->
            Atomic.incr arrived;
            (* Wait (bounded) until at least 2 tasks overlap. *)
            let spins = ref 0 in
            while Atomic.get arrived < 2 && !spins < 100_000_000 do
              incr spins
            done;
            i)
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) "parallel rendezvous" [ 1; 2; 3; 4 ] got;
      Alcotest.(check bool) "at least two tasks overlapped" true
        (Atomic.get arrived >= 2))

(* ------------------------------------------------------------------ *)
(* Determinism: parallel suite analysis is bit-identical               *)
(* ------------------------------------------------------------------ *)

let check_var_report_equal app (a : Crit.var_report) (b : Crit.var_report) =
  Alcotest.(check string)
    (Printf.sprintf "%s: variable name" app)
    a.Crit.name b.Crit.name;
  Alcotest.(check (array bool))
    (Printf.sprintf "%s/%s: mask" app a.Crit.name)
    a.Crit.mask b.Crit.mask;
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s: regions" app a.Crit.name)
    true
    (a.Crit.regions = b.Crit.regions)

let test_suite_determinism () =
  let apps = Scvad_npb.Suite.all in
  let cfg j = Scvad_core.Analyzer.Config.(default |> with_jobs j) in
  let seq = Scvad_core.Analyzer.run_suite ~config:(cfg 1) apps in
  let par = Scvad_core.Analyzer.run_suite ~config:(cfg 4) apps in
  (* Two jobs=2 runs in one process: the analyses the calling domain
     takes in the second run record onto slabs the first left in its
     pool. *)
  let twice =
    List.init 2 (fun _ -> Scvad_core.Analyzer.run_suite ~config:(cfg 2) apps)
  in
  List.iter
    (fun again ->
      Alcotest.(check string) "jobs=2 run bit-identical to jobs=4"
        (Marshal.to_string par []) (Marshal.to_string again []))
    twice;
  List.iter2
    (fun (s : Crit.report) (p : Crit.report) ->
      Alcotest.(check string) "app order" s.Crit.app p.Crit.app;
      Alcotest.(check int)
        (Printf.sprintf "%s: tape nodes" s.Crit.app)
        s.Crit.tape_nodes p.Crit.tape_nodes;
      Alcotest.(check int)
        (Printf.sprintf "%s: variable count" s.Crit.app)
        (List.length s.Crit.vars)
        (List.length p.Crit.vars);
      List.iter2 (check_var_report_equal s.Crit.app) s.Crit.vars p.Crit.vars)
    seq par

let test_forward_probe_parallel_determinism () =
  (* Forward probes shard per element; compare against sequential on the
     reduced CG (full benchmarks are O(elements) runs in this mode). *)
  let app = (module Scvad_npb.Cg.Tiny_app : Scvad_core.App.S) in
  let cfg j =
    Scvad_core.Analyzer.Config.(
      default |> with_mode Crit.Forward_probe |> with_jobs j)
  in
  let seq = Scvad_core.Analyzer.run ~config:(cfg 1) app in
  let par = Scvad_core.Analyzer.run ~config:(cfg 4) app in
  List.iter2 (check_var_report_equal "cg-tiny") seq.Crit.vars par.Crit.vars

let test_activity_parallel_determinism () =
  let app = (module Scvad_npb.Cg.Tiny_app : Scvad_core.App.S) in
  let cfg j =
    Scvad_core.Analyzer.Config.(
      default |> with_mode Crit.Activity_dependence |> with_jobs j)
  in
  let seq = Scvad_core.Analyzer.run ~config:(cfg 1) app in
  let par = Scvad_core.Analyzer.run ~config:(cfg 4) app in
  List.iter2 (check_var_report_equal "cg-tiny") seq.Crit.vars par.Crit.vars

(* A non-positive job count is a caller bug, rejected loudly at every
   entry point rather than hanging a pool with zero workers. *)
let test_jobs_validated () =
  Alcotest.check_raises "Pool.create ~jobs:0"
    (Invalid_argument "Pool.create: jobs must be >= 1 (got 0)") (fun () ->
      ignore (Pool.create ~jobs:0));
  Alcotest.check_raises "Pool.with_pool ~jobs:(-3)"
    (Invalid_argument "Pool.create: jobs must be >= 1 (got -3)") (fun () ->
      Pool.with_pool ~jobs:(-3) (fun _ -> ()));
  let app =
    match Scvad_npb.Suite.find "is" with
    | Some a -> a
    | None -> Alcotest.fail "no is app"
  in
  Alcotest.check_raises "Analyzer.run ~jobs:0"
    (Invalid_argument "Analyzer.run: jobs must be >= 1 (got 0)")
    (fun () ->
      ignore
        (Scvad_core.Analyzer.run
           ~config:Scvad_core.Analyzer.Config.(default |> with_jobs 0)
           app));
  Alcotest.check_raises "Analyzer.run_suite ~jobs:(-2)"
    (Invalid_argument "Analyzer.run_suite: jobs must be >= 1 (got -2)")
    (fun () ->
      ignore
        (Scvad_core.Analyzer.run_suite
           ~config:Scvad_core.Analyzer.Config.(default |> with_jobs (-2))
           [ app ]))

let test_default_jobs_clamped () =
  let hw = Pool.hardware_threads () in
  let dj = Pool.default_jobs () in
  Alcotest.(check bool) "hardware_threads >= 1" true (hw >= 1);
  Alcotest.(check bool) "default_jobs >= 1" true (dj >= 1);
  Alcotest.(check bool) "default_jobs <= recommended" true
    (dj <= Domain.recommended_domain_count ());
  Alcotest.(check bool) "default_jobs <= hardware budget" true (dj <= hw)

(* Criticality.report is plain data (strings, bool arrays, span lists),
   so Marshal gives a bit-exact comparison of whole analysis records. *)
let prop_suite_determinism =
  QCheck.Test.make ~count:2
    ~name:"run_suite bit-identical across random jobs"
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (j1, j2) ->
      let run j =
        Marshal.to_string
          (Scvad_core.Analyzer.run_suite
             ~config:Scvad_core.Analyzer.Config.(default |> with_jobs j)
             Scvad_npb.Suite.all)
          []
      in
      String.equal (run j1) (run j2))

exception Planted of int

(* The exception contract, falsified at random: whatever the job count,
   a randomly-raising workload — including raises from nested in-worker
   maps — re-raises exactly the exception a sequential run picks. *)
let prop_first_exception_deterministic =
  QCheck.Test.make ~count:20
    ~name:"exception choice identical for jobs=1..4 (incl. nested maps)"
    QCheck.(pair (int_range 2 4) (small_list (int_bound 30)))
    (fun (jobs, xs) ->
      let outcome j =
        Pool.with_pool ~jobs:j (fun pool ->
            match
              Pool.map pool
                (fun x ->
                  if x mod 2 = 1 then
                    (* Three consecutive ints contain a multiple of 3,
                       so every odd shard fails inside its nested map. *)
                    List.fold_left ( + ) 0
                      (Pool.map pool
                         (fun y ->
                           if y mod 3 = 0 then raise (Planted y) else y)
                         [ x; x + 1; x + 2 ])
                  else if x mod 3 = 0 then raise (Planted x)
                  else x)
                xs
            with
            | r -> Ok r
            | exception Planted y -> Error y)
      in
      outcome 1 = outcome jobs)

let suites =
  [ ( "par.pool",
      [ Alcotest.test_case "map preserves input order" `Quick test_map_ordering;
        Alcotest.test_case "jobs=1 sequential" `Quick test_map_jobs1_sequential;
        Alcotest.test_case "empty and singleton" `Quick
          test_map_empty_and_singleton;
        Alcotest.test_case "first exception re-raised" `Quick
          test_map_exception;
        Alcotest.test_case "worker backtrace survives re-raise" `Quick
          test_exception_backtrace_survives;
        Alcotest.test_case "nested failure re-raised in outer order" `Quick
          test_nested_map_exception;
        Alcotest.test_case "shutdown idempotent, map raises" `Quick
          test_map_after_shutdown;
        Alcotest.test_case "nested map" `Quick test_nested_map;
        Alcotest.test_case "nested maps never start a batch" `Quick
          test_nested_never_batches;
        Alcotest.test_case "init" `Quick test_init;
        Alcotest.test_case "tasks overlap" `Quick test_map_actually_parallel;
        Alcotest.test_case "non-positive jobs rejected everywhere" `Quick
          test_jobs_validated;
        Alcotest.test_case "default jobs clamped to CPU budget" `Quick
          test_default_jobs_clamped ] );
    ( "par.determinism",
      [ Alcotest.test_case "analyze_suite jobs=1 = jobs=4 (all NPB)" `Quick
          test_suite_determinism;
        Alcotest.test_case "forward probe jobs=1 = jobs=4 (cg-tiny)" `Quick
          test_forward_probe_parallel_determinism;
        Alcotest.test_case "activity jobs=1 = jobs=4 (cg-tiny)" `Quick
          test_activity_parallel_determinism;
        QCheck_alcotest.to_alcotest prop_suite_determinism;
        QCheck_alcotest.to_alcotest prop_first_exception_deterministic ] ) ]
