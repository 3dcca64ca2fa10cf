(* Resilient versioned checkpoint directory.

   One file per checkpointed iteration.  Three defenses stand between a
   run and a bad restart:

   - verified atomic writes: the encoded file lands in a temp file, is
     read back and compared byte for byte with the encoded string, and
     only then renamed over the final name — a torn or bit-flipped
     write is caught while the previous checkpoint is still intact
     (bounded rewrite attempts);
   - typed loads: [load] never raises on bad data; it returns a
     [load_error] naming the failure so callers can fall back;
   - multi-level retention: [retention] keeps the newest [keep_last]
     checkpoints plus any older iteration divisible by [keep_every] —
     the usual HPC ladder of dense recent + sparse ancient versions.

   All I/O goes through {!Io_fault} so every one of these paths is
   exercisable under deterministic fault injection. *)

type retention = { keep_last : int option; keep_every : int option }

let keep_all = { keep_last = None; keep_every = None }

type t = {
  dir : string;
  retention : retention;
  verify_writes : bool;
  faults : Io_fault.plan option;
}

exception Write_failed of { path : string; attempts : int; reason : string }

let () =
  Printexc.register_printer (function
    | Write_failed { path; attempts; reason } ->
        Some
          (Printf.sprintf "Store.Write_failed(%s after %d attempts: %s)" path
             attempts reason)
    | _ -> None)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(retention = keep_all) ?(verify_writes = true) ?faults dir =
  (match retention.keep_last with
  | Some k when k < 1 -> invalid_arg "Store.create: keep_last must be >= 1"
  | _ -> ());
  (match retention.keep_every with
  | Some m when m < 1 -> invalid_arg "Store.create: keep_every must be >= 1"
  | _ -> ());
  mkdir_p dir;
  { dir; retention; verify_writes; faults }

let dir t = t.dir
let retention t = t.retention
let basename iteration = Printf.sprintf "ckpt_%09d.scvd" iteration
let path_of_iteration t iteration = Filename.concat t.dir (basename iteration)

let iteration_of_basename name =
  let prefix = "ckpt_" and suffix = ".scvd" in
  let plen = String.length prefix and slen = String.length suffix in
  if
    String.length name > plen + slen
    && String.sub name 0 plen = prefix
    && Filename.check_suffix name suffix
  then int_of_string_opt (String.sub name plen (String.length name - plen - slen))
  else None

let list_iterations t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map iteration_of_basename
  |> List.sort compare

let remove_checkpoint t iteration =
  let path = path_of_iteration t iteration in
  if Sys.file_exists path then Sys.remove path;
  if Sys.file_exists (path ^ ".aux") then Sys.remove (path ^ ".aux")

(* Multi-level GC: the newest [keep_last] always survive; older ones
   survive only on the sparse [keep_every] grid. *)
let gc t =
  match t.retention.keep_last with
  | None -> ()
  | Some k ->
      let iters = list_iterations t in
      let total = List.length iters in
      List.iteri
        (fun i it ->
          let recent = i >= total - k in
          let on_grid =
            match t.retention.keep_every with
            | None -> false
            | Some m -> it mod m = 0
          in
          if not (recent || on_grid) then remove_checkpoint t it)
        iters

(* ------------------------------------------------------------------ *)
(* Load                                                                *)
(* ------------------------------------------------------------------ *)

type load_error = Missing | Io_error of string | Corrupt of string

let describe_error = function
  | Missing -> "missing checkpoint file"
  | Io_error m -> "I/O error: " ^ m
  | Corrupt m -> "corrupt checkpoint: " ^ m

let load t iteration =
  let path = path_of_iteration t iteration in
  if not (Sys.file_exists path) then Error Missing
  else
    match Io_fault.read_file ?faults:t.faults path with
    | Error m -> Error (Io_error m)
    | Ok data -> (
        match Ckpt_format.decode data with
        | file -> Ok file
        | exception Ckpt_format.Corrupt m -> Error (Corrupt m))

let load_exn t iteration =
  match load t iteration with
  | Ok file -> file
  | Error e -> raise (Ckpt_format.Corrupt (describe_error e))

(* ------------------------------------------------------------------ *)
(* Save                                                                *)
(* ------------------------------------------------------------------ *)

let max_write_attempts = 3

(* Verification reads the temp file back without fault injection: the
   question is what actually landed on the disk.  Equal bytes imply
   everything the CRC and a parse would check, and more. *)
let landed_ok tmp data =
  match Io_fault.read_file tmp with
  | Error m -> Error m
  | Ok landed ->
      if String.length landed <> String.length data then
        Error
          (Printf.sprintf "short write: %d of %d bytes" (String.length landed)
             (String.length data))
      else if not (String.equal landed data) then
        Error "landed bytes differ from the encoded file"
      else Ok ()

let save ?(sidecar_aux = false) t (file : Ckpt_format.file) =
  let path = path_of_iteration t file.iteration in
  let tmp = path ^ ".tmp" in
  let data = Ckpt_format.encode file in
  let rec attempt n =
    Io_fault.write_file ?faults:t.faults tmp data;
    if not t.verify_writes then ()
    else
      match landed_ok tmp data with
      | Ok () -> ()
      | Error reason ->
          if n >= max_write_attempts then begin
            Sys.remove tmp;
            raise (Write_failed { path; attempts = n; reason })
          end
          else attempt (n + 1)
  in
  attempt 1;
  Sys.rename tmp path;
  if sidecar_aux then begin
    let aux = Ckpt_format.aux_file_string file in
    if aux <> "" then begin
      let aux_path = path ^ ".aux" in
      let tmp_aux = aux_path ^ ".tmp" in
      Io_fault.write_file tmp_aux aux;
      Sys.rename tmp_aux aux_path
    end
  end;
  gc t;
  path

(* ------------------------------------------------------------------ *)
(* Latest / fallback walk                                              *)
(* ------------------------------------------------------------------ *)

let latest t =
  match List.rev (list_iterations t) with
  | [] -> None
  | it :: _ -> Some (load_exn t it)

(* Walk backward from the newest checkpoint, skipping invalid ones —
   the store half of graceful-degradation restart. *)
let latest_valid t =
  let rec go skipped = function
    | [] -> (None, List.rev skipped)
    | it :: older -> (
        match load t it with
        | Ok file -> (Some (it, file), List.rev skipped)
        | Error e -> go ((it, e) :: skipped) older)
  in
  go [] (List.rev (list_iterations t))

(* Bytes on disk of one checkpoint (incl. its sidecar, if present). *)
let disk_bytes t iteration =
  let path = path_of_iteration t iteration in
  let size p = if Sys.file_exists p then (Unix.stat p).Unix.st_size else 0 in
  size path + size (path ^ ".aux")

(* Remove every checkpoint (and sidecar) in the store. *)
let wipe t =
  Array.iter
    (fun name ->
      if String.length name >= 5 && String.sub name 0 5 = "ckpt_" then
        Sys.remove (Filename.concat t.dir name))
    (Sys.readdir t.dir)
