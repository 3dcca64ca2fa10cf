(* Orchestration: predict every benchmark, fit the grid-parameterized
   families, and render the report (text or JSON, mirroring the other
   static-pass drivers).

   The dynamic gate — predictions vs a real `Analyzer.reverse_analysis`
   tape — lives in `bin/cost.ml`. *)

(* Paper order, with the reduced cg-tiny the ablations run. *)
let s_apps = [ "bt"; "sp"; "mg"; "cg"; "lu"; "ft"; "ep"; "is" ]
let default_apps = s_apps @ [ "cg-tiny" ]

type app_cost = { c_app : string; c_p : Predict.t }

type class_point = {
  k_label : string;  (** problem class: S, W, A *)
  k_grid : int;
  k_nodes : int;  (** polynomial evaluation *)
}

type family_fit = {
  y_file : string;
  y_niter : int;
  y_poly : Poly.t;
  y_points : class_point list;
}

(* Counted samples for the fit: small enough to stay fast, one more
   point than the highest plausible degree so overfitting shows up as a
   degree bump (the ADI nests are affine => exact cubics in practice). *)
let sample_grids = [ 5; 6; 7; 8; 9; 10; 11; 13 ]

(* The grid-parameterized families ([Make_sized] functors) and their
   NPB problem-class grid sizes.  MG's sizing functor takes a full
   CONFIG rather than a grid, and CG's node count depends on the
   pseudo-random sparsity pattern, so neither reduces to a polynomial
   in one size parameter; FT/EP/IS are fixed-size in this repro. *)
let families =
  [
    ("bt", 1, [ ("S", 12); ("W", 24); ("A", 64) ]);
    ("sp", 1, [ ("S", 12); ("W", 36); ("A", 64) ]);
    ("lu", 3, [ ("S", 12); ("W", 33); ("A", 64) ]);
  ]

let analyze ?(apps = default_apps) world =
  List.map
    (fun name ->
      match World.find_app world name with
      | None -> invalid_arg ("Driver.analyze: no app named " ^ name)
      | Some app ->
          { c_app = name; c_p = Predict.predict app })
    apps

let fit_families world =
  List.map
    (fun (file, niter, classes) ->
      let points =
        List.map
          (fun g -> (g, Predict.predict_sized world ~file ~grid:g ~niter))
          sample_grids
      in
      let poly = Poly.fit points in
      {
        y_file = file;
        y_niter = niter;
        y_poly = poly;
        y_points =
          List.map
            (fun (label, grid) ->
              { k_label = label; k_grid = grid; k_nodes = Poly.eval_int poly grid })
            classes;
      })
    families

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let segment_sum p = Array.fold_left ( + ) 0 p.Predict.p_segments

let render_text costs fits =
  let b = Buffer.create 4096 in
  Buffer.add_string b "static cost model: predicted tape nodes\n\n";
  Buffer.add_string b
    (Printf.sprintf "  %-8s %12s %10s %10s %6s\n" "app" "predicted" "lift"
       "output" "iters");
  List.iter
    (fun c ->
      let p = c.c_p in
      Buffer.add_string b
        (Printf.sprintf "  %-8s %12d %10d %10d %6d\n" c.c_app p.Predict.p_total
           p.Predict.p_lift p.Predict.p_output
           (Array.length p.Predict.p_segments)))
    costs;
  if fits <> [] then begin
    Buffer.add_string b
      "\ngrid-parameterized families (nodes as a polynomial in grid)\n\n";
    List.iter
      (fun f ->
        Buffer.add_string b
          (Printf.sprintf "  %s (niter=%d): nodes(g) = %s\n" f.y_file f.y_niter
             (Poly.to_string f.y_poly));
        List.iter
          (fun k ->
            Buffer.add_string b
              (Printf.sprintf "    class %-2s grid %-3d -> %d nodes (~%s tape)\n"
                 k.k_label k.k_grid k.k_nodes
                 (let bytes = float_of_int k.k_nodes *. 16. in
                  if bytes >= 1e9 then Printf.sprintf "%.1f GB" (bytes /. 1e9)
                  else Printf.sprintf "%.0f MB" (bytes /. 1e6))))
          f.y_points)
      fits
  end;
  Buffer.contents b

let json_of_cost c =
  let p = c.c_p in
  Scvad_util.Ljson.Obj
    [
      ("app", Scvad_util.Ljson.Str c.c_app);
      ("predicted", Scvad_util.Ljson.Int p.Predict.p_total);
      ("lift", Scvad_util.Ljson.Int p.Predict.p_lift);
      ("segments_total", Scvad_util.Ljson.Int (segment_sum p));
      ("output", Scvad_util.Ljson.Int p.Predict.p_output);
      ("at_iter", Scvad_util.Ljson.Int p.Predict.p_at_iter);
      ("niter", Scvad_util.Ljson.Int p.Predict.p_analysis_niter);
      ( "segments",
        Scvad_util.Ljson.Arr
          (Array.to_list
             (Array.map
                (fun s -> Scvad_util.Ljson.Int s)
                p.Predict.p_segments)) );
      ( "vars",
        Scvad_util.Ljson.Arr
          (List.map
             (fun v ->
               Scvad_util.Ljson.Obj
                 [
                   ("name", Scvad_util.Ljson.Str v.Predict.lv_name);
                   ("scalars", Scvad_util.Ljson.Int v.Predict.lv_scalars);
                   ("lifted", Scvad_util.Ljson.Int v.Predict.lv_lifted);
                 ])
             p.Predict.p_vars) );
    ]

let json_of_fit f =
  Scvad_util.Ljson.Obj
    [
      ("file", Scvad_util.Ljson.Str f.y_file);
      ("niter", Scvad_util.Ljson.Int f.y_niter);
      ("degree", Scvad_util.Ljson.Int (Poly.degree f.y_poly));
      ("poly", Scvad_util.Ljson.Str (Poly.to_string f.y_poly));
      ( "classes",
        Scvad_util.Ljson.Arr
          (List.map
             (fun k ->
               Scvad_util.Ljson.Obj
                 [
                   ("class", Scvad_util.Ljson.Str k.k_label);
                   ("grid", Scvad_util.Ljson.Int k.k_grid);
                   ("nodes", Scvad_util.Ljson.Int k.k_nodes);
                 ])
             f.y_points) );
    ]

let render_json costs fits =
  Scvad_util.Ljson.to_string
    (Scvad_util.Ljson.Obj
       [
         ("apps", Scvad_util.Ljson.Arr (List.map json_of_cost costs));
         ("families", Scvad_util.Ljson.Arr (List.map json_of_fit fits));
       ])
  ^ "\n"
