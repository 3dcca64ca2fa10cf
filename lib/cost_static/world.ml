(* Loads the kernel sources into one interpreter universe.

   The NPB kernels live in three dune libraries — `scvad_nprand`,
   `scvad_solvers`, `scvad_npb` — whose wrapped names appear in the
   sources both qualified (`Scvad_nprand.Nprand.create`) and, within a
   library, bare (`Adi_common.Dims`).  Both spellings are registered:
   each file module under its bare name and under a per-library
   namespace module. *)

open Value

type t = {
  prims : Prims.t;
  globals : (string, Value.t ref) Hashtbl.t;
  npb_mods : (string * Value.modl) list;  (* file name (no ext), module *)
  npb_dir : string;
}

(* A syntax error becomes an interpreter error naming the file, like
   every other load failure. *)
let parse_file path =
  match Scvad_lint.Source.(parse ~file:path (read_file path)) with
  | Ok ast -> ast
  | Error f -> err "%s" (Scvad_lint.Finding.to_text f)

(* load order within each library: dependencies first *)
let solver_files = [ "dcomplex"; "block5"; "btridiag"; "pentadiag"; "fft" ]
let npb_files = [ "adi_common"; "bt"; "cg"; "ep"; "ft"; "is"; "lu"; "mg"; "sp" ]

let load ?npb_dir () =
  let npb_dir =
    match npb_dir with
    | Some d -> d
    | None -> (
        match Scvad_lint.Source.locate "lib/npb" with
        | Some d -> d
        | None -> err "cannot locate lib/npb (no dune-project upwards)")
  in
  let lib_dir = Filename.dirname npb_dir in
  let prims = Prims.make () in
  let globals = Hashtbl.create 64 in
  let resolve n =
    match Hashtbl.find_opt globals n with
    | Some c -> Some c
    | None -> Hashtbl.find_opt prims.Prims.env n
  in
  let load_file path =
    let ast = parse_file path in
    try Interp.eval_structure resolve ast
    with Error msg -> err "%s: %s" (Filename.basename path) msg
  in
  let load_library ~dir ~lib_name files =
    let members = Hashtbl.create 16 in
    let mods =
      List.filter_map
        (fun base ->
          let path = Filename.concat dir (base ^ ".ml") in
          if not (Sys.file_exists path) then None
          else begin
            let m = load_file path in
            let mname = String.capitalize_ascii base in
            let cell = ref (Vmod m) in
            Hashtbl.replace globals mname cell;
            Hashtbl.replace members mname cell;
            Some (base, m)
          end)
        files
    in
    Hashtbl.replace globals lib_name (ref (Vmod members));
    mods
  in
  ignore
    (load_library
       ~dir:(Filename.concat lib_dir "nprand")
       ~lib_name:"Scvad_nprand" [ "nprand" ]);
  ignore
    (load_library
       ~dir:(Filename.concat lib_dir "solvers")
       ~lib_name:"Scvad_solvers" solver_files);
  let npb_mods =
    load_library ~dir:npb_dir ~lib_name:"Scvad_npb" npb_files
  in
  { prims; globals; npb_mods; npb_dir }

(* Every App-shaped submodule of the loaded kernel files: a structure
   with [name], [analysis_niter], [tape_nodes_hint] and [Make]. *)
let apps world : (string * Value.modl) list =
  List.concat_map
    (fun (_file, m) ->
      Hashtbl.fold
        (fun _member cell acc ->
          match !cell with
          | Vmod sub
            when Hashtbl.mem sub "name"
                 && Hashtbl.mem sub "analysis_niter"
                 && Hashtbl.mem sub "tape_nodes_hint"
                 && Hashtbl.mem sub "Make" -> (
              match !(Hashtbl.find sub "name") with
              | Vstr name -> (name, sub) :: acc
              | _ -> acc)
          | _ -> acc)
        m [])
    world.npb_mods

let find_app world name =
  List.assoc_opt name (apps world)
