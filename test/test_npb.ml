(* NPB kernel tests: Table II reproduction, the figure patterns, NPB
   reference values, and per-kernel crash/restart with pruned, poisoned
   checkpoints (paper §IV-C). *)

open Scvad_core
module Npb = Scvad_npb

let run_cfg config app = Analyzer.run ~config app

(* Cache: one analysis per app for the whole suite. *)
let report_cache : (string, Criticality.report) Hashtbl.t = Hashtbl.create 8

let report_of (module A : App.S) =
  match Hashtbl.find_opt report_cache A.name with
  | Some r -> r
  | None ->
      let r = Analyzer.run (module A) in
      Hashtbl.add report_cache A.name r;
      r

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

let test_table2 () =
  List.iter
    (fun (app_name, var, uncritical, total) ->
      match Npb.Suite.find app_name with
      | None -> Alcotest.failf "unknown app %s" app_name
      | Some (module A) ->
          let r = report_of (module A) in
          let v = Criticality.find r var in
          Alcotest.(check int)
            (Printf.sprintf "%s(%s) total" app_name var)
            total (Criticality.total v);
          Alcotest.(check int)
            (Printf.sprintf "%s(%s) uncritical" app_name var)
            uncritical (Criticality.uncritical v))
    Npb.Suite.paper_table2

(* EP and IS have no partially-critical variable: everything is fully
   critical except EP's [buffer], the per-batch scratch that every
   batch regenerates in full before reading — fully uncritical, and the
   static activity pass's showcase claim. *)
let test_ep_is_all_critical () =
  List.iter
    (fun name ->
      match Npb.Suite.find name with
      | None -> Alcotest.failf "unknown app %s" name
      | Some (module A) ->
          let r = report_of (module A) in
          List.iter
            (fun v ->
              if name = "ep" && v.Criticality.name = "buffer" then
                Alcotest.(check int) "ep(buffer) fully uncritical" 0
                  (Criticality.critical v)
              else
                Alcotest.(check int)
                  (Printf.sprintf "%s(%s) fully critical" name
                     v.Criticality.name)
                  0 (Criticality.uncritical v))
            r.Criticality.vars)
    [ "ep"; "is" ]

let test_int_vars_critical_everywhere () =
  List.iter
    (fun (module A : App.S) ->
      let r = report_of (module A) in
      List.iter
        (fun v ->
          if v.Criticality.kind = Criticality.Int_var then
            Alcotest.(check int)
              (Printf.sprintf "%s(%s) int critical" A.name v.Criticality.name)
              0 (Criticality.uncritical v))
        r.Criticality.vars)
    Npb.Suite.all

(* ------------------------------------------------------------------ *)
(* Figure patterns                                                     *)
(* ------------------------------------------------------------------ *)

let idx4 k j i m = ((((k * 13) + j) * 13) + i) * 5 + m

let test_fig3_bt_pattern () =
  (* Fig. 3: uncritical exactly on the padded planes j = 12, i = 12. *)
  let r = report_of (module Npb.Bt.App) in
  let mask = (Criticality.find r "u").Criticality.mask in
  for k = 0 to 11 do
    for j = 0 to 12 do
      for i = 0 to 12 do
        for m = 0 to 4 do
          let expected = j < 12 && i < 12 in
          if mask.(idx4 k j i m) <> expected then
            Alcotest.failf "bt u[%d][%d][%d][%d]: expected %b" k j i m expected
        done
      done
    done
  done

let test_fig3_lu_components_0_3 () =
  let r = report_of (module Npb.Lu.App) in
  let mask = (Criticality.find r "u").Criticality.mask in
  for k = 0 to 11 do
    for j = 0 to 12 do
      for i = 0 to 12 do
        for m = 0 to 3 do
          let expected = j < 12 && i < 12 in
          if mask.(idx4 k j i m) <> expected then
            Alcotest.failf "lu u[%d][%d][%d][%d]: expected %b" k j i m expected
        done
      done
    done
  done

let test_fig7_lu_energy_component () =
  (* Fig. 7: u[.][4] critical iff in the union of the three directional
     sweep ranges. *)
  let r = report_of (module Npb.Lu.App) in
  let mask = (Criticality.find r "u").Criticality.mask in
  let in_range lo hi x = x >= lo && x <= hi in
  let critical = ref 0 in
  for k = 0 to 11 do
    for j = 0 to 12 do
      for i = 0 to 12 do
        let expected =
          (in_range 1 10 k && in_range 1 10 j && in_range 0 11 i)
          || (in_range 1 10 k && in_range 0 11 j && in_range 1 10 i)
          || (in_range 0 11 k && in_range 1 10 j && in_range 1 10 i)
        in
        if mask.(idx4 k j i 4) <> expected then
          Alcotest.failf "lu u[%d][%d][%d][4]: expected %b" k j i expected;
        if expected then incr critical
      done
    done
  done;
  Alcotest.(check int) "union cardinality" 1600 !critical

let test_fig4_mg_u_single_span () =
  let r = report_of (module Npb.Mg.App) in
  let v = Criticality.find r "u" in
  Alcotest.(check string) "one contiguous critical run then uncritical tail"
    "0-39304"
    (Scvad_checkpoint.Regions.to_string v.Criticality.regions)

let test_fig5_mg_r_restriction_read_set () =
  (* Fig. 5: finest-level r critical exactly at indices 1..33 per
     dimension (the full-weighting read set); coarse levels and slack
     uncritical. *)
  let r = report_of (module Npb.Mg.App) in
  let mask = (Criticality.find r "r").Criticality.mask in
  let n = 34 in
  Array.iteri
    (fun off critical ->
      let expected =
        if off >= n * n * n then false
        else
          let i1 = off mod n and i2 = off / n mod n and i3 = off / (n * n) in
          i1 >= 1 && i2 >= 1 && i3 >= 1
      in
      if critical <> expected then
        Alcotest.failf "mg r[%d]: expected %b" off expected)
    mask

let test_fig6_cg_x_strip () =
  let r = report_of (module Npb.Cg.App) in
  let v = Criticality.find r "x" in
  Alcotest.(check string) "first and last element unused" "1-1401"
    (Scvad_checkpoint.Regions.to_string v.Criticality.regions)

let test_fig8_ft_padding_plane () =
  let r = report_of (module Npb.Ft.App) in
  let mask = (Criticality.find r "y").Criticality.mask in
  Array.iteri
    (fun off critical ->
      let x = off mod 65 in
      if critical <> (x < 64) then
        Alcotest.failf "ft y[%d] (x=%d): expected %b" off x (x < 64))
    mask

(* ------------------------------------------------------------------ *)
(* Checkpoint-boundary invariance                                      *)
(* ------------------------------------------------------------------ *)

let test_bt_boundary_invariance () =
  let r0 = report_of (module Npb.Bt.App) in
  let r2 =
    run_cfg
      Analyzer.Config.(default |> with_at_iter 2 |> with_niter 3)
      (module Npb.Bt.App)
  in
  Alcotest.(check (array bool)) "same mask at t=0 and t=2"
    (Criticality.find r0 "u").Criticality.mask
    (Criticality.find r2 "u").Criticality.mask

(* ------------------------------------------------------------------ *)
(* Analysis modes agree (reduced-size CG: forward probe is O(N) runs)  *)
(* ------------------------------------------------------------------ *)

let test_modes_agree_cg_tiny () =
  let by_mode m =
    run_cfg
      Analyzer.Config.(default |> with_mode m)
      (module Npb.Cg.Tiny_app : App.S)
  in
  let reverse = by_mode Criticality.Reverse_gradient in
  let forward = by_mode Criticality.Forward_probe in
  let activity = by_mode Criticality.Activity_dependence
  in
  let mask r = (Criticality.find r "x").Criticality.mask in
  Alcotest.(check (array bool)) "forward = reverse" (mask reverse) (mask forward);
  Alcotest.(check (array bool)) "activity = reverse" (mask reverse)
    (mask activity);
  Alcotest.(check int) "tiny CG pattern" 2
    (Criticality.uncritical (Criticality.find reverse "x"))

(* ------------------------------------------------------------------ *)
(* NPB reference value                                                 *)
(* ------------------------------------------------------------------ *)

let test_cg_matches_npb_reference () =
  (* Our makea/conj_grad port reproduces NPB's official class-S
     verification value zeta = 8.5971775078648. *)
  let g = Harness.golden_run (module Npb.Cg.App) in
  let zeta_ref = 8.5971775078648 in
  if Float.abs (g.Harness.output -. zeta_ref) > 1e-6 then
    Alcotest.failf "zeta %.13f does not match NPB reference %.13f"
      g.Harness.output zeta_ref

(* The matrix generator as it was written first: a tuple-keyed hashtable
   accumulates the outer-product triples (duplicates sum as [x +. acc]
   from [0.]), and each CSR row is sorted by a polymorphic compare.  The
   oracle for [Cg.makea]. *)
let reference_makea (module C : Npb.Cg.CONFIG) rng =
  let next () = Scvad_nprand.Nprand.next rng in
  let n = C.na in
  let nn1 =
    let rec go p = if p >= n then p else go (2 * p) in
    go 1
  in
  let sprnvc () =
    let v = Array.make C.nonzer 0. and iv = Array.make C.nonzer 0 in
    let mark = Hashtbl.create (2 * C.nonzer) in
    let nzv = ref 0 in
    while !nzv < C.nonzer do
      let vecelt = next () in
      let vecloc = next () in
      let i = int_of_float (float_of_int nn1 *. vecloc) + 1 in
      if i <= n && not (Hashtbl.mem mark i) then begin
        Hashtbl.add mark i ();
        v.(!nzv) <- vecelt;
        iv.(!nzv) <- i;
        incr nzv
      end
    done;
    (v, iv)
  in
  let vecset v iv ~i =
    match List.find_opt (fun k -> iv.(k) = i) (List.init (Array.length iv) Fun.id) with
    | Some k ->
        v.(k) <- 0.5;
        (v, iv)
    | None -> (Array.append v [| 0.5 |], Array.append iv [| i |])
  in
  let ratio = C.rcond ** (1. /. float_of_int n) in
  let acc = Hashtbl.create (n * 16) in
  let add irow jcol x =
    let key = (irow, jcol) in
    Hashtbl.replace acc key (x +. try Hashtbl.find acc key with Not_found -> 0.)
  in
  let size = ref 1. in
  for i = 1 to n do
    let v, iv = sprnvc () in
    let v, iv = vecset v iv ~i in
    Array.iteri
      (fun ivelt jcol ->
        let scale = !size *. v.(ivelt) in
        Array.iteri (fun ivelt1 irow -> add irow jcol (v.(ivelt1) *. scale)) iv)
      iv;
    size := !size *. ratio
  done;
  for i = 1 to n do
    add i i (C.rcond -. C.shift)
  done;
  let rows = Array.make (n + 2) [] in
  Hashtbl.iter (fun (r, c) x -> rows.(r) <- (c, x) :: rows.(r)) acc;
  let rowstr = Array.make (n + 2) 0 in
  for r = 1 to n do
    rowstr.(r + 1) <- rowstr.(r) + List.length rows.(r)
  done;
  let sorted = List.concat_map (fun r -> List.sort compare rows.(r)) (List.init n succ) in
  ( rowstr,
    Array.of_list (List.map fst sorted),
    Array.of_list (List.map (fun (_, x) -> Int64.bits_of_float x) sorted) )

let test_makea_oracle () =
  List.iter
    (fun (label, (module C : Npb.Cg.CONFIG)) ->
      let rng () =
        let r = Scvad_nprand.Nprand.create Scvad_nprand.Nprand.cg_seed in
        ignore (Scvad_nprand.Nprand.next r);
        r
      in
      let m = Npb.Cg.makea (module C) (rng ()) in
      let rowstr, colidx, bits = reference_makea (module C) (rng ()) in
      Alcotest.(check (array int)) (label ^ " rowstr") rowstr m.Npb.Cg.rowstr;
      Alcotest.(check (array int)) (label ^ " colidx") colidx m.Npb.Cg.colidx;
      Alcotest.(check bool) (label ^ " value bits") true
        (bits = Array.map Int64.bits_of_float m.Npb.Cg.values))
    [ ("class S", (module Npb.Cg.Class_s : Npb.Cg.CONFIG));
      ("cg-tiny", (module Npb.Cg.Tiny_config : Npb.Cg.CONFIG)) ]

(* IS's keys as [create] first drew them: four [Nprand.next] deviates
   per key, summed as OCaml evaluates [n +. n +. n +. n] (the right
   operand first). *)
let test_is_keys_oracle () =
  let rng = Scvad_nprand.Nprand.create Scvad_nprand.Nprand.cg_seed in
  let next () = Scvad_nprand.Nprand.next rng in
  let want =
    Array.init Npb.Is.total_keys (fun _ ->
        let x = next () +. next () +. next () +. next () in
        int_of_float (float_of_int (Npb.Is.max_key / 4) *. x))
  in
  let module I = Npb.Is.App.Float in
  let keys =
    List.find
      (fun iv -> iv.Variable.view.Variable.name = "key_array")
      (I.int_vars (I.create ()))
  in
  Alcotest.(check bool) "key_array" true
    (Variable.snapshot keys.Variable.view = want)

(* ------------------------------------------------------------------ *)
(* Crash / restart with pruned, NaN-poisoned checkpoints (§IV-C)       *)
(* ------------------------------------------------------------------ *)

let with_store f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "scvad_npb_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  let store = Scvad_checkpoint.Store.create dir in
  Fun.protect
    ~finally:(fun () ->
      Scvad_checkpoint.Store.wipe store;
      Unix.rmdir dir)
    (fun () -> f store)

let crash_restart ?niter (module A : App.S) ~every ~crash_at () =
  with_store (fun store ->
      let report = report_of (module A) in
      let e =
        Harness.crash_restart_experiment ~report ~store ~every ~crash_at
          ?niter
          ~poison:Scvad_checkpoint.Failure.Nan (module A)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s verified after pruned+poisoned restart" A.name)
        true e.Harness.verified;
      Alcotest.(check int) "same iteration count"
        e.Harness.golden.Harness.iterations
        e.Harness.restarted.Harness.iterations)

let test_crash_restart_bt () =
  crash_restart (module Npb.Bt.App) ~niter:6 ~every:2 ~crash_at:5 ()

let test_crash_restart_sp () =
  crash_restart (module Npb.Sp.App) ~niter:6 ~every:2 ~crash_at:5 ()

let test_crash_restart_lu () =
  crash_restart (module Npb.Lu.App) ~niter:8 ~every:3 ~crash_at:7 ()

let test_crash_restart_mg () =
  crash_restart (module Npb.Mg.App) ~every:1 ~crash_at:3 ()

let test_crash_restart_cg () =
  crash_restart (module Npb.Cg.App) ~niter:6 ~every:2 ~crash_at:5 ()

let test_crash_restart_ft () =
  crash_restart (module Npb.Ft.App) ~niter:4 ~every:1 ~crash_at:2 ()

let test_crash_restart_ep () =
  crash_restart (module Npb.Ep.App) ~niter:8 ~every:3 ~crash_at:7 ()

let test_crash_restart_is () =
  crash_restart (module Npb.Is.App) ~every:3 ~crash_at:8 ()

(* IS's one recording with boundary markers gives, boundary by
   boundary, the masks of one recording per boundary.  The boundaries
   disagree (the next rank reads every key but the two it plants first,
   full_verify reads the bucket pointers), so this pins each marker's
   place, which the all-true union would not. *)
let test_is_one_recording () =
  let count m = Array.fold_left (fun n b -> if b then n + 1 else n) 0 m in
  let one = Npb.Is.boundary_masks ()
  and reference = Npb.Is.boundary_masks_per_recording () in
  Alcotest.(check int) "boundaries" (List.length Npb.Is.boundaries)
    (List.length one);
  List.iter2
    (fun boundary (ms, refs) ->
      List.iter2
        (fun (name, m) (rname, r) ->
          let what = Printf.sprintf "boundary %d %s" boundary name in
          Alcotest.(check string) what rname name;
          Alcotest.(check (array bool)) what r m)
        ms refs)
    Npb.Is.boundaries
    (List.combine one reference);
  Alcotest.(check (list (pair string int)))
    "critical counts per boundary"
    [ ("key_array", Npb.Is.total_keys - 2); ("bucket_ptrs", 0);
      ("passed_verification", 1); ("key_array", Npb.Is.total_keys - 2);
      ("bucket_ptrs", 0); ("passed_verification", 1); ("key_array", 0);
      ("bucket_ptrs", Npb.Is.num_buckets); ("passed_verification", 1) ]
    (List.concat_map (List.map (fun (n, m) -> (n, count m))) one)

(* Full (unpruned) checkpoints must also roundtrip. *)
let test_crash_restart_full_checkpoint_bt () =
  with_store (fun store ->
      let e =
        Harness.crash_restart_experiment ~store ~every:2 ~crash_at:5 ~niter:6
          (module Npb.Bt.App)
      in
      Alcotest.(check bool) "bt full-checkpoint restart verified" true
        e.Harness.verified;
      Alcotest.(check int) "iterations" 6 e.Harness.golden.Harness.iterations)

(* ------------------------------------------------------------------ *)
(* Registry / Table I                                                  *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  Alcotest.(check (list string)) "paper order"
    [ "bt"; "sp"; "mg"; "cg"; "lu"; "ft"; "ep"; "is" ]
    Npb.Suite.names;
  let t1 = Report.table1 Npb.Suite.all in
  List.iter
    (fun decl ->
      if not (Astring.String.is_infix ~affix:decl t1) then
        Alcotest.failf "Table I misses %S" decl)
    [ "double u[12][13][13][5]";
      "double u[46480]";
      "double r[46480]";
      "double x[1402]";
      "double rho_i[12][13][13]";
      "double qs[12][13][13]";
      "double rsd[12][13][13][5]";
      "dcomplex y[64][64][65]";
      "dcomplex sums[6]";
      "double q[10]";
      "int key_array[65536]";
      "int bucket_ptrs[512]";
      "int passed_verification";
      "int iteration";
      "int step";
      "int istep";
      "int kt" ]

(* ------------------------------------------------------------------ *)
(* Generated plain-float instances                                     *)
(* ------------------------------------------------------------------ *)

(* [A.Float] runs golden runs and restarts; for the NPB kernels it is
   generated from the kernel source with the scalar bound to plain
   floats.  At a random boundary k its checkpoint variables must equal
   those of the generic oracle [A.Make (Float_scalar)] bit for bit, and
   so must the output after the rest of the run.  Runs are capped at three
   iterations to keep the generic side affordable. *)
let prop_float_instance (module A : App.S) =
  let niter = min A.default_niter 3 in
  QCheck.Test.make ~count:2
    ~name:(A.name ^ ": Float = Make (Float_scalar) at random k")
    (QCheck.int_bound niter)
    (fun k ->
      let module G = A.Make (Scvad_ad.Float_scalar) in
      let module F = A.Float in
      let g = G.create () and f = F.create () in
      G.run g ~from:0 ~until:k;
      F.run f ~from:0 ~until:k;
      let floats vars =
        List.map
          (fun v ->
            (v.Variable.name, Array.map Int64.bits_of_float (Variable.snapshot v)))
          vars
      in
      let ints vars =
        List.map
          (fun { Variable.view = v; _ } -> (v.Variable.name, Variable.snapshot v))
          vars
      in
      if floats (G.float_vars g) <> floats (F.float_vars f) then
        QCheck.Test.fail_reportf "float_vars differ at k = %d" k;
      if ints (G.int_vars g) <> ints (F.int_vars f) then
        QCheck.Test.fail_reportf "int_vars differ at k = %d" k;
      G.run g ~from:k ~until:niter;
      F.run f ~from:k ~until:niter;
      let go = G.output g and fo = F.output f in
      if Int64.bits_of_float go <> Int64.bits_of_float fo then
        QCheck.Test.fail_reportf "output: generic %h, generated %h" go fo;
      true)

(* ------------------------------------------------------------------ *)
(* FT recording pinned                                                 *)
(* ------------------------------------------------------------------ *)

(* FT's FFT pushes four multiplies and six additions per butterfly, in
   a fixed order.  The reverse tape's size, the backward sweep's visited
   nodes, the bits of every impact magnitude of [y] and [sums], and the
   6-iteration output of both float instances pin that order and the
   arithmetic: a layout change to the FFT's work arrays must leave them
   all unchanged. *)
let bits_md5 (a : float array) =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_ft_recording_pinned () =
  let r = report_of (module Npb.Ft.App) in
  Alcotest.(check int) "tape nodes" 24_530_844 r.Criticality.tape_nodes;
  Alcotest.(check int) "visited nodes" 7_856_238
    (match r.Criticality.sweep_profile with
    | None -> 0
    | Some w -> w.Criticality.w_visited_nodes);
  let impact = Analyzer.analyze_impact (module Npb.Ft.App) in
  List.iter
    (fun (var, md5) ->
      Alcotest.(check string) (var ^ " magnitudes MD5") md5
        (bits_md5 (Impact.find impact var).Impact.magnitude))
    [ ("y", "88ac44781eb0e7ca8d715222c077bfd0");
      ("sums", "1c507ed6c044af516be945b78605f1d2") ];
  let output (module I : App.INSTANCE with type scalar = float) =
    let st = I.create () in
    I.run st ~from:0 ~until:Npb.Ft.niter;
    Printf.sprintf "%h" (I.output st)
  in
  Alcotest.(check string) "Float output" "0x1.7e63b790d08fcp+12"
    (output (module Npb.Ft.App.Float));
  Alcotest.(check string) "Make (Float_scalar) output"
    "0x1.7e63b790d08fcp+12"
    (output (module Npb.Ft.App.Make (Scvad_ad.Float_scalar)))

let suites =
  [ ( "npb.table2",
      [ Alcotest.test_case "paper Table II, exact" `Slow test_table2;
        Alcotest.test_case "EP and IS fully critical" `Quick
          test_ep_is_all_critical;
        Alcotest.test_case "integer variables critical" `Slow
          test_int_vars_critical_everywhere ] );
    ( "npb.figures",
      [ Alcotest.test_case "Fig 3: BT cube pattern" `Quick test_fig3_bt_pattern;
        Alcotest.test_case "Fig 3: LU components 0-3" `Quick
          test_fig3_lu_components_0_3;
        Alcotest.test_case "Fig 7: LU energy component" `Quick
          test_fig7_lu_energy_component;
        Alcotest.test_case "Fig 4: MG u single span" `Quick
          test_fig4_mg_u_single_span;
        Alcotest.test_case "Fig 5: MG r restriction read set" `Quick
          test_fig5_mg_r_restriction_read_set;
        Alcotest.test_case "Fig 6: CG x strip" `Quick test_fig6_cg_x_strip;
        Alcotest.test_case "Fig 8: FT padding plane" `Slow
          test_fig8_ft_padding_plane ] );
    ( "npb.analysis",
      [ Alcotest.test_case "checkpoint-boundary invariance (BT)" `Quick
          test_bt_boundary_invariance;
        Alcotest.test_case "three modes agree (tiny CG)" `Slow
          test_modes_agree_cg_tiny;
        Alcotest.test_case "CG matches NPB reference zeta" `Quick
          test_cg_matches_npb_reference;
        Alcotest.test_case "IS masks: one recording = one per boundary"
          `Quick test_is_one_recording;
        Alcotest.test_case "CG makea = hashtable reference" `Quick
          test_makea_oracle;
        Alcotest.test_case "IS keys = four summed deviates" `Quick
          test_is_keys_oracle ] );
    ( "npb.crash_restart",
      [ Alcotest.test_case "bt" `Quick test_crash_restart_bt;
        Alcotest.test_case "sp" `Quick test_crash_restart_sp;
        Alcotest.test_case "lu" `Quick test_crash_restart_lu;
        Alcotest.test_case "mg" `Quick test_crash_restart_mg;
        Alcotest.test_case "cg" `Quick test_crash_restart_cg;
        Alcotest.test_case "ft" `Slow test_crash_restart_ft;
        Alcotest.test_case "ep" `Quick test_crash_restart_ep;
        Alcotest.test_case "is" `Quick test_crash_restart_is;
        Alcotest.test_case "bt (full checkpoint)" `Quick
          test_crash_restart_full_checkpoint_bt ] );
    ("npb.registry", [ Alcotest.test_case "Table I" `Quick test_registry ]);
    ( "npb.ft_recording",
      [ Alcotest.test_case "tape, magnitudes and outputs pinned" `Slow
          test_ft_recording_pinned ] );
    ( "npb.float_instance",
      List.map
        (fun app -> QCheck_alcotest.to_alcotest (prop_float_instance app))
        (Npb.Suite.all @ [ (module Npb.Cg.Tiny_app : App.S) ]) ) ]
