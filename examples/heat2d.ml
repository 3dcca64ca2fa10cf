(* heat2d: criticality analysis of a 2-D heat-equation solver whose
   state array is over-allocated — the "imperfect coding" pattern the
   paper finds in BT, SP and FT, reproduced on a standalone mini-app.

   The temperature field is declared 36x36 but the solver was written
   for a 32x32 grid: rows/columns 32..35 exist, are initialized, are
   checkpointed by a naive library — and never influence the result.
   The analysis proves it, the pruned checkpoint drops them, and a
   poisoned restart still verifies.

   Run with: dune exec examples/heat2d.exe *)

open Scvad_ad
open Scvad_core

let alloc = 36 (* declared extent *)
let used = 32 (* extent the solver actually uses *)

module Heat : App.S = struct
  let name = "heat2d"
  let description = "2-D heat equation on an over-allocated grid"
  let default_niter = 200
  let analysis_niter = 2
  let int_taint_masks = None

  module Make (S : Scalar.S) = struct
    type scalar = S.t

    type state = {
      t : S.t array; (* [36][36], row-major; checkpoint variable *)
      work : S.t array;
      mutable iter_done : int;
    }

    let idx r c = (r * alloc) + c

    (* A hot spot in the middle, insulated borders, and arbitrary junk
       in the over-allocated band (it is real data a naive checkpoint
       would happily save). *)
    let create () =
      let t =
        Array.init (alloc * alloc) (fun o ->
            let r = o / alloc and c = o mod alloc in
            if r >= used || c >= used then S.of_float 99.9
            else if r >= 12 && r < 20 && c >= 12 && c < 20 then S.of_float 100.
            else S.of_float (20. +. (0.01 *. float_of_int o)))
      in
      { t; work = Array.make (alloc * alloc) S.zero; iter_done = 0 }

    let run st ~from ~until =
      let k = S.of_float 0.2 in
      for _ = from to until - 1 do
        for r = 1 to used - 2 do
          for c = 1 to used - 2 do
            st.work.(idx r c) <-
              S.(
                st.t.(idx r c)
                +. (k
                    *. (st.t.(idx (r - 1) c)
                       +. st.t.(idx (r + 1) c)
                       +. st.t.(idx r (c - 1))
                       +. st.t.(idx r (c + 1))
                       -. (of_float 4. *. st.t.(idx r c)))))
          done
        done;
        for r = 1 to used - 2 do
          for c = 1 to used - 2 do
            st.t.(idx r c) <- st.work.(idx r c)
          done
        done;
        st.iter_done <- st.iter_done + 1
      done

    let iterations_done st = st.iter_done

    (* Total heat over the used grid. *)
    let output st =
      let acc = ref S.zero in
      for r = 0 to used - 1 do
        for c = 0 to used - 1 do
          acc := S.(!acc +. st.t.(idx r c))
        done
      done;
      !acc

    let float_vars st =
      [ Variable.of_array ~name:"t" ~doc:"temperature field (over-allocated)"
          (Scvad_nd.Shape.create [ alloc; alloc ])
          st.t ]

    let int_vars st =
      [ Variable.int_scalar ~name:"it" ~doc:"main loop index"
          ~crit:(Variable.Always_critical "main loop index")
          ~get:(fun () -> st.iter_done)
          ~set:(fun v -> st.iter_done <- v) ]
  end

  module Float = Make (Float_scalar)
end

let () =
  Printf.printf "== heat2d: %dx%d allocated, %dx%d used\n" alloc alloc used used;
  let report = Analyzer.run (module Heat) in
  let v = Criticality.find report "t" in
  Printf.printf "t: %d critical / %d uncritical of %d (%.1f%% prunable)\n\n"
    (Criticality.critical v) (Criticality.uncritical v) (Criticality.total v)
    (100. *. Criticality.uncritical_rate v);
  (* Render the 2-D mask: the over-allocated band shows up in blue. *)
  print_string (Scvad_viz.Ascii.legend ~color:false);
  print_string
    (Scvad_viz.Ascii.grid ~rows:alloc ~cols:alloc v.Criticality.mask);
  print_newline ();
  (* Storage effect. *)
  let row = Report.table3_row (module Heat) report in
  Printf.printf "checkpoint: %d bytes full -> %d bytes pruned (%.1f%% saved)\n"
    row.Report.original_bytes row.Report.optimized_bytes
    (100. *. Report.saved_rate row);
  (* Crash / pruned restart / verification. *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "scvad_heat2d" in
  let store = Scvad_checkpoint.Store.create dir in
  let e =
    Harness.crash_restart_experiment ~report ~store ~every:25 ~crash_at:160
      ~poison:Scvad_checkpoint.Failure.Nan (module Heat)
  in
  Printf.printf "crash at iter 160, pruned NaN-poisoned restart: %s\n"
    (if e.Harness.verified then "VERIFICATION SUCCESSFUL"
     else "VERIFICATION FAILED");
  Scvad_checkpoint.Store.wipe store
