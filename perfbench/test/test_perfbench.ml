(* Tests of the benchmark's own code: span self times, the metric
   summary and the reference comparison. *)

module Trace = Perfbench.Trace
module Stats = Perfbench.Stats
module Refs = Perfbench.Refs

let close a b = Float.abs (a -. b) < 1e-9

let span ?(parent = -1) id name start stop =
  { Trace.id; parent; name; app = ""; start; stop }

let self_of selfs id =
  snd (List.find (fun ((s : Trace.span), _) -> s.Trace.id = id) selfs)

let test_self_times () =
  (* root 0..10 with children 1..3 and 2..6 (overlapping: union 1..6)
     and 8..12 (clipped to 8..10); grandchild 2..3 inside span 2 *)
  let spans =
    [
      span 0 "bench.pass" 0. 10.;
      span ~parent:0 1 "store.save" 1. 3.;
      span ~parent:0 2 "pruned.snapshot" 2. 6.;
      span ~parent:2 3 "store.load" 2. 3.;
      span ~parent:0 4 "npb.run" 8. 12.;
    ]
  in
  let selfs = Trace.self_times spans in
  assert (close (self_of selfs 0) (10. -. 5. -. 2.));
  assert (close (self_of selfs 1) 2.);
  assert (close (self_of selfs 2) 3.);
  assert (close (self_of selfs 3) 1.);
  assert (close (self_of selfs 4) 4.);
  let store = Trace.self_sum (fun s -> Trace.layer_of s.Trace.name = "store") selfs in
  assert (close store 3.);
  assert (Trace.layer_of "ckpt_format.encode" = "ckpt_format");
  assert (Trace.layer_of "bench" = "bench")

let test_recorded_spans () =
  Trace.reset ();
  Trace.enabled := true;
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.with_span ~app:"cg" "inner" (fun () -> 41) + 1)
  in
  Trace.enabled := false;
  assert (r = 42);
  (match Trace.spans () with
  | [ outer; inner ] ->
      assert (outer.Trace.name = "outer" && outer.Trace.parent = -1);
      assert (inner.Trace.parent = outer.Trace.id && inner.Trace.app = "cg");
      assert (inner.Trace.start >= outer.Trace.start);
      assert (inner.Trace.stop <= outer.Trace.stop)
  | _ -> assert false);
  (* an exception still closes its span *)
  Trace.enabled := true;
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Trace.enabled := false;
  assert (List.length (Trace.spans ()) = 3);
  (* tracing off records nothing *)
  ignore (Trace.with_span "off" (fun () -> ()));
  assert (List.length (Trace.spans ()) = 3);
  let json = Trace.to_chrome_json (Trace.spans ()) in
  assert (String.length json > 2 && json.[0] = '[');
  Trace.reset ()

let test_summary () =
  assert (close (Stats.median [ 3.; 1.; 2. ]) 2.);
  assert (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  let pass a b =
    [
      { Stats.name = "total_s"; unit_ = "s"; value = a };
      { Stats.name = "saves"; unit_ = "count"; value = b };
    ]
  in
  (match Stats.median_metrics [ pass 3. 7.; pass 1. 7.; pass 2. 7. ] with
  | [ t; s ] ->
      assert (t.Stats.name = "total_s" && close t.Stats.value 2.);
      assert (s.Stats.unit_ = "count" && close s.Stats.value 7.)
  | _ -> assert false);
  let line =
    Stats.result_line ~correct:true ~attempted:3 ~failed:0
      [ { Stats.name = "total_s"; unit_ = "s"; value = 0.1 } ]
  in
  assert (
    line
    = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
       {\"total_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}}");
  assert (Stats.json_number 42. = "42")

let test_reference_comparison () =
  let refs = Refs.parse "# comment\n\nmask.cg.x 0f0f\ngolden.cg.6 0x1p+3\n" in
  assert (Refs.compare refs [ ("mask.cg.x", "0f0f"); ("golden.cg.6", "0x1p+3") ] = []);
  (match Refs.compare refs [ ("mask.cg.x", "0f0e") ] with
  | [ Refs.Differs { key = "mask.cg.x"; expected = "0f0f"; got = "0f0e" } ] -> ()
  | _ -> assert false);
  (match Refs.compare refs [ ("mask.cg.y", "0f0f") ] with
  | [ Refs.Unreferenced "mask.cg.y" ] -> ()
  | _ -> assert false);
  (* a one-bit mask flip changes the digest *)
  let mask = Array.init 100 (fun i -> i mod 3 = 0) in
  let flipped = Array.copy mask in
  flipped.(42) <- not flipped.(42);
  assert (Refs.mask_digest mask <> Refs.mask_digest flipped);
  assert (Refs.mask_digest mask = Refs.mask_digest (Array.copy mask));
  (* hex floats keep every bit *)
  assert (Refs.hex_float 0.1 <> Refs.hex_float (Float.succ 0.1));
  assert (float_of_string (Refs.hex_float 0.1) = 0.1);
  (* duplicate keys are a broken reference file *)
  assert (
    match Refs.parse "a 1\na 2\n" with
    | exception Failure _ -> true
    | _ -> false);
  let round = Refs.parse (Refs.render [ ("k", "v w") ]) in
  assert (Refs.find round "k" = Some "v w")

let () =
  test_self_times ();
  test_recorded_spans ();
  test_summary ();
  test_reference_comparison ();
  print_endline "perfbench: self tests passed"
