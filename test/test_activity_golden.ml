(* Activity-mode golden: the dependence analysis of every class-S app
   but FT (left out to keep the suite short), pinned by the recorded
   node count, the visited-node count of the sweep, and the MD5 of each
   variable's mask.  IS records no float nodes; its report carries the
   three integer-taint masks of [Is.taint_masks] plus the always-critical
   loop counter. *)

module Crit = Scvad_core.Criticality
module Analyzer = Scvad_core.Analyzer
module Npb = Scvad_npb

let mask_md5 (v : Crit.var_report) =
  Digest.to_hex
    (Digest.string
       (String.init (Array.length v.Crit.mask) (fun i ->
            if v.Crit.mask.(i) then '1' else '0')))

(* (app, tape_nodes, visited_nodes, [(variable, mask MD5)]) *)
let golden =
  [
    ( (module Npb.Bt.App : Scvad_core.App.S),
      3_568_446,
      2_978_946,
      [ ("u", "1f6aed07cdfce424c2380fca153f38a3");
        ("step", "c4ca4238a0b923820dcc509a6f75849b") ] );
    ( (module Npb.Sp.App),
      601_446,
      583_446,
      [ ("u", "1f6aed07cdfce424c2380fca153f38a3");
        ("step", "c4ca4238a0b923820dcc509a6f75849b") ] );
    ( (module Npb.Mg.App),
      2_357_624,
      2_331_721,
      [ ("u", "1cf2dd61d4b1bca13a580d45da853aa3");
        ("r", "89ddbb333ad6a68ee65a0a49f1277fa5");
        ("it", "c4ca4238a0b923820dcc509a6f75849b") ] );
    ( (module Npb.Cg.App),
      4_429_154,
      4_416_549,
      [ ("x", "8d3f1221ed8354c8bd285e746bc3a42c");
        ("it", "c4ca4238a0b923820dcc509a6f75849b") ] );
    ( (module Npb.Lu.App),
      640_637,
      571_973,
      [ ("u", "fe6cd241cdb8b451f19ab9f2ee7a796c");
        ("rho_i", "41843b0d4abbb031348f12ada4ce3229");
        ("qs", "41843b0d4abbb031348f12ada4ce3229");
        ("rsd", "1f6aed07cdfce424c2380fca153f38a3");
        ("istep", "c4ca4238a0b923820dcc509a6f75849b") ] );
    ( (module Npb.Ep.App),
      284_950,
      153_878,
      [ ("sx", "c4ca4238a0b923820dcc509a6f75849b");
        ("sy", "c4ca4238a0b923820dcc509a6f75849b");
        ("q", "e11170b8cbd2d74102651cb967fa28e5");
        ("buffer", "8f607cfdd2c87d6a7eedb657dafbd836");
        ("k", "c4ca4238a0b923820dcc509a6f75849b") ] );
    ( (module Npb.Is.App),
      0,
      0,
      [ ("passed_verification", "c4ca4238a0b923820dcc509a6f75849b");
        ("key_array", "ab2ce340d36bbaafe17965a3a2c6ed5b");
        ("bucket_ptrs", "5a763e87c8f28b68719e1965da109cc9");
        ("iteration", "c4ca4238a0b923820dcc509a6f75849b") ] );
  ]

let check_app ((module A : Scvad_core.App.S), nodes, visited, vars) () =
  let r =
    Analyzer.run
      ~config:Analyzer.Config.(default |> with_mode Crit.Activity_dependence)
      (module A)
  in
  Alcotest.(check int) (A.name ^ ": tape nodes") nodes r.Crit.tape_nodes;
  Alcotest.(check int)
    (A.name ^ ": visited nodes")
    visited
    (match r.Crit.sweep_profile with
    | None -> 0
    | Some w -> w.Crit.w_visited_nodes);
  Alcotest.(check (list (pair string string)))
    (A.name ^ ": mask digests")
    vars
    (List.map (fun v -> (v.Crit.name, mask_md5 v)) r.Crit.vars)

let suites =
  [
    ( "activity.golden",
      List.map
        (fun ((module A : Scvad_core.App.S), _, _, _ as g) ->
          Alcotest.test_case
            (A.name ^ ": masks, nodes and visited")
            `Quick (check_app g))
        golden );
  ]
