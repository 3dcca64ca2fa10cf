(* Resilience tests: the checkpoint substrate under real failures.

   - CRC-mismatch detection: a flipped byte on disk surfaces as a typed
     [Corrupt] load error, never a successful load;
   - graceful-degradation restart: with the newest checkpoints
     corrupted, [Harness.restart_resilient] falls back to the newest
     valid one — or a cold start — and the §IV-C experiment still
     verifies bit for bit (BT, CG, IS per the acceptance criteria);
   - multi-level retention GC: dense recent + sparse older survivors;
   - deterministic fault injection: same seed ⇒ same faults, transient
     failures recover via bounded retries, verified writes keep
     corrupted attempts off the final path. *)

open Scvad_core
open Scvad_checkpoint
module Npb = Scvad_npb

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "scvad_resil_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let f64_section ~name ~dims data =
  { Ckpt_format.name; dims; spe = 1; regions = None;
    payload = Ckpt_format.F64 data }

let trivial_file iteration =
  {
    Ckpt_format.app = "demo";
    iteration;
    sections =
      [ f64_section ~name:"v" ~dims:[| 3 |] [| float iteration; 1.; 2. |] ];
  }

(* Flip one byte in the middle of a checkpoint file on disk. *)
let corrupt_on_disk store iteration =
  let path = Store.path_of_iteration store iteration in
  let ic = open_in_bin path in
  let data = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let pos = Bytes.length data / 2 in
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0x10));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

(* Truncate a checkpoint file on disk to half its length. *)
let truncate_on_disk store iteration =
  let path = Store.path_of_iteration store iteration in
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic / 2) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Typed load errors                                                   *)
(* ------------------------------------------------------------------ *)

let test_load_detects_corruption () =
  with_tmp_dir (fun dir ->
      let store = Store.create dir in
      ignore (Store.save store (trivial_file 3));
      corrupt_on_disk store 3;
      (match Store.load store 3 with
      | Error (Store.Corrupt _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Store.describe_error e)
      | Ok _ -> Alcotest.fail "bit flip not detected");
      ignore (Store.save store (trivial_file 4));
      truncate_on_disk store 4;
      (match Store.load store 4 with
      | Error (Store.Corrupt _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Store.describe_error e)
      | Ok _ -> Alcotest.fail "truncation not detected");
      match Store.load store 99 with
      | Error Store.Missing -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Store.describe_error e)
      | Ok _ -> Alcotest.fail "missing checkpoint loaded")

let test_latest_valid_walks_back () =
  with_tmp_dir (fun dir ->
      let store = Store.create dir in
      List.iter (fun i -> ignore (Store.save store (trivial_file i))) [ 1; 2; 3 ];
      corrupt_on_disk store 3;
      corrupt_on_disk store 2;
      let best, skipped = Store.latest_valid store in
      (match best with
      | Some (it, file) ->
          Alcotest.(check int) "newest valid" 1 it;
          Alcotest.(check int) "file iteration" 1 file.Ckpt_format.iteration
      | None -> Alcotest.fail "no valid checkpoint found");
      Alcotest.(check (list int)) "skipped newest first" [ 3; 2 ]
        (List.map fst skipped);
      (* All corrupt: nothing valid, everything skipped. *)
      corrupt_on_disk store 1;
      let best, skipped = Store.latest_valid store in
      Alcotest.(check bool) "none valid" true (best = None);
      Alcotest.(check int) "all skipped" 3 (List.length skipped))

(* ------------------------------------------------------------------ *)
(* Multi-level retention                                               *)
(* ------------------------------------------------------------------ *)

let test_retention_two_levels () =
  with_tmp_dir (fun dir ->
      let store =
        Store.create
          ~retention:{ Store.keep_last = Some 2; keep_every = Some 4 }
          dir
      in
      List.iter
        (fun i -> ignore (Store.save store (trivial_file i)))
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
      (* Dense level: 9, 10.  Sparse level: 4, 8. *)
      Alcotest.(check (list int)) "two-level survivors" [ 4; 8; 9; 10 ]
        (Store.list_iterations store))

let test_retention_gc_removes_sidecars () =
  with_tmp_dir (fun dir ->
      let store =
        Store.create
          ~retention:{ Store.keep_last = Some 1; keep_every = None }
          dir
      in
      let regions = Regions.of_mask [| true; false; true |] in
      let pruned_file iteration =
        {
          Ckpt_format.app = "demo";
          iteration;
          sections =
            [ { Ckpt_format.name = "v"; dims = [| 3 |]; spe = 1;
                regions = Some regions;
                payload = Ckpt_format.F64 [| 0.; 2. |] } ];
        }
      in
      ignore (Store.save ~sidecar_aux:true store (pruned_file 1));
      ignore (Store.save ~sidecar_aux:true store (pruned_file 2));
      Alcotest.(check (list int)) "only newest kept" [ 2 ]
        (Store.list_iterations store);
      Alcotest.(check bool) "old sidecar removed" false
        (Sys.file_exists (Store.path_of_iteration store 1 ^ ".aux")))

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                       *)
(* ------------------------------------------------------------------ *)

let heavy_plan seed =
  Io_fault.plan ~torn_write_rate:0.2 ~truncation_rate:0.2 ~bit_flip_rate:0.2
    ~transient_rate:0.2 ~seed ()

let event_signature e =
  Printf.sprintf "%d:%s:%s" e.Io_fault.op (Io_fault.kind_name e.Io_fault.kind)
    e.Io_fault.detail

let test_fault_injection_deterministic () =
  let run seed =
    with_tmp_dir (fun dir ->
        let plan = heavy_plan seed in
        let contents =
          List.map
            (fun i ->
              let path = Filename.concat dir (Printf.sprintf "f%d" i) in
              Io_fault.write_file ~faults:plan path
                (String.init 256 (fun j -> Char.chr ((i + j) land 0xFF)));
              match Io_fault.read_file path with
              | Ok data -> data
              | Error m -> Alcotest.failf "read back: %s" m)
            [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
        in
        (List.map event_signature (Io_fault.events plan), contents))
  in
  let events_a, contents_a = run 42 in
  let events_b, contents_b = run 42 in
  Alcotest.(check (list string)) "same seed, same faults" events_a events_b;
  Alcotest.(check bool) "same seed, same landed bytes" true
    (contents_a = contents_b);
  Alcotest.(check bool) "faults actually injected" true (events_a <> []);
  let events_c, _ = run 43 in
  Alcotest.(check bool) "different seed, different faults" true
    (events_a <> events_c)

let test_transient_faults_recover () =
  with_tmp_dir (fun dir ->
      (* Every operation suffers a transient failure; bounded retries
         must still land every write and read. *)
      let plan = Io_fault.plan ~transient_rate:1.0 ~seed:7 () in
      let path = Filename.concat dir "t" in
      Io_fault.write_file ~faults:plan path "payload";
      (match Io_fault.read_file ~faults:plan path with
      | Ok data -> Alcotest.(check string) "read through transients" "payload" data
      | Error m -> Alcotest.failf "transient not recovered: %s" m);
      let kinds =
        List.map (fun e -> Io_fault.kind_name e.Io_fault.kind)
          (Io_fault.events plan)
      in
      Alcotest.(check (list string)) "both ops injected transients"
        [ "transient"; "transient" ] kinds)

let test_verified_writes_survive_faults () =
  with_tmp_dir (fun dir ->
      (* A store whose writes are frequently mangled: verification must
         keep every checkpoint that lands on the final path decodable. *)
      let store =
        Store.create
          ~faults:
            (Io_fault.plan ~torn_write_rate:0.15 ~truncation_rate:0.15
               ~bit_flip_rate:0.15 ~seed:11 ())
          ~verify_writes:true dir
      in
      List.iter
        (fun i -> ignore (Store.save store (trivial_file i)))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ];
      List.iter
        (fun it ->
          match Store.load store it with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "verified write left a bad checkpoint %d: %s" it
                (Store.describe_error e))
        (Store.list_iterations store);
      Alcotest.(check int) "all checkpoints present" 8
        (List.length (Store.list_iterations store)))

(* ------------------------------------------------------------------ *)
(* Graceful-degradation restart (acceptance: BT, CG, IS)               *)
(* ------------------------------------------------------------------ *)

let corrupt_newest n store =
  let iters = List.rev (Store.list_iterations store) in
  List.iteri (fun i it -> if i < n then corrupt_on_disk store it) iters

let resilient_case ?niter (module A : App.S) ~every ~crash_at () =
  with_tmp_dir (fun dir ->
      let store = Store.create dir in
      let before = ref [] in
      let r =
        Harness.crash_restart_resilient_experiment ~store ~every ~crash_at
          ?niter
          ~sabotage:(fun s ->
            before := Store.list_iterations s;
            corrupt_newest 2 s)
          (module A)
      in
      let iters = List.rev !before in
      (match iters with
      | newest :: next :: rest ->
          Alcotest.(check (list int))
            (A.name ^ ": skipped the two corrupted newest")
            [ newest; next ] (List.map fst r.Harness.skipped);
          let expected_restore = match rest with it :: _ -> it | [] -> 0 in
          Alcotest.(check int) (A.name ^ ": restored newest valid")
            expected_restore r.Harness.restored_iteration
      | _ -> Alcotest.failf "%s: expected >= 2 checkpoints before sabotage"
               A.name);
      Alcotest.(check bool)
        (A.name ^ ": verified bit-for-bit after fallback restart") true
        r.Harness.experiment.Harness.verified)

let test_resilient_bt () =
  resilient_case (module Npb.Bt.App) ~niter:6 ~every:1 ~crash_at:5 ()

let test_resilient_cg () =
  resilient_case (module Npb.Cg.App) ~niter:6 ~every:1 ~crash_at:5 ()

let test_resilient_is () =
  resilient_case (module Npb.Is.App) ~every:2 ~crash_at:9 ()

let test_resilient_cold_restart () =
  (* Every checkpoint corrupted: the resilient restart must degrade all
     the way to a cold start and still verify. *)
  with_tmp_dir (fun dir ->
      let store = Store.create dir in
      let r =
        Harness.crash_restart_resilient_experiment ~store ~every:1 ~crash_at:5
          ~niter:6
          ~sabotage:(fun s -> corrupt_newest max_int s)
          (module Npb.Cg.App)
      in
      Alcotest.(check int) "cold restart" 0 r.Harness.restored_iteration;
      Alcotest.(check int) "all checkpoints skipped" 5
        (List.length r.Harness.skipped);
      Alcotest.(check bool) "still verifies" true
        r.Harness.experiment.Harness.verified)

let test_resilient_pruned_restart () =
  (* The fallback path composes with pruning: corrupted newest, pruned
     NaN-poisoned restore from an older checkpoint, bitwise verify. *)
  with_tmp_dir (fun dir ->
      let store = Store.create dir in
      let report = Analyzer.run (module Npb.Cg.App) in
      let r =
        Harness.crash_restart_resilient_experiment ~report ~store ~every:1
          ~crash_at:5 ~niter:6
          ~poison:Failure.Nan
          ~sabotage:(corrupt_newest 2)
          (module Npb.Cg.App)
      in
      (* every=1, crash at 5 ⇒ checkpoints 1..5 on disk; the newest two
         (5, 4) are corrupted, so the fallback restores 3. *)
      Alcotest.(check int) "restored 3" 3 r.Harness.restored_iteration;
      Alcotest.(check bool) "verified" true r.Harness.experiment.Harness.verified)

let suites =
  [ ( "resilience.store",
      [ Alcotest.test_case "typed load errors" `Quick
          test_load_detects_corruption;
        Alcotest.test_case "latest_valid walks backward" `Quick
          test_latest_valid_walks_back;
        Alcotest.test_case "two-level retention GC" `Quick
          test_retention_two_levels;
        Alcotest.test_case "GC removes sidecars" `Quick
          test_retention_gc_removes_sidecars ] );
    ( "resilience.faults",
      [ Alcotest.test_case "deterministic replay" `Quick
          test_fault_injection_deterministic;
        Alcotest.test_case "transient failures recover" `Quick
          test_transient_faults_recover;
        Alcotest.test_case "verified writes survive faults" `Quick
          test_verified_writes_survive_faults ] );
    ( "resilience.restart",
      [ Alcotest.test_case "BT: 2 corrupted newest, fallback verifies" `Quick
          test_resilient_bt;
        Alcotest.test_case "CG: 2 corrupted newest, fallback verifies" `Quick
          test_resilient_cg;
        Alcotest.test_case "IS: 2 corrupted newest, fallback verifies" `Quick
          test_resilient_is;
        Alcotest.test_case "all corrupted: cold restart verifies" `Quick
          test_resilient_cold_restart;
        Alcotest.test_case "pruned + poisoned fallback verifies" `Quick
          test_resilient_pruned_restart ] ) ]
