(* Aggregated alcotest runner for all scvad libraries. *)

let () =
  Alcotest.run "scvad"
    (Test_ad.suites @ Test_nd.suites @ Test_nprand.suites
   @ Test_solvers.suites @ Test_checkpoint.suites @ Test_core.suites @ Test_npb.suites @ Test_viz.suites @ Test_mixed.suites @ Test_extras.suites @ Test_corruption.suites @ Test_incremental.suites @ Test_resilience.suites @ Test_par.suites @ Test_lint.suites @ Test_activity.suites
   @ Test_guard.suites @ Test_discover.suites @ Test_segtape.suites @ Test_budget.suites
   @ Test_sparse.suites @ Test_activity_golden.suites @ Test_cost.suites @ Test_racefree.suites @ Test_outcome.suites)
