(* Committed correctness references: flat "key value" lines.

   Keys name one checked output (["mask.ft.u1"], ["golden.cg.6"],
   ["cost.ft"]); values are digests, counts or hex floats.  Lines
   starting with '#' and blank lines are ignored. *)

type t = (string, string) Hashtbl.t

let parse text =
  let t = Hashtbl.create 256 in
  String.split_on_char '\n' text
  |> List.iteri (fun i line ->
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' then
           match String.index_opt line ' ' with
           | None ->
               failwith (Printf.sprintf "refs line %d: no value: %S" (i + 1) line)
           | Some k ->
               let key = String.sub line 0 k in
               let value =
                 String.trim (String.sub line k (String.length line - k))
               in
               if Hashtbl.mem t key then
                 failwith (Printf.sprintf "refs line %d: duplicate key %s" (i + 1) key);
               Hashtbl.replace t key value);
  t

let load path = parse (In_channel.with_open_bin path In_channel.input_all)

let render pairs =
  String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") pairs)

type mismatch =
  | Unreferenced of string  (** an output the references do not know *)
  | Differs of { key : string; expected : string; got : string }

let describe = function
  | Unreferenced key -> Printf.sprintf "%s: no committed reference" key
  | Differs { key; expected; got } ->
      Printf.sprintf "%s: expected %s, got %s" key expected got

(* Every produced (key, value) must equal its committed reference. *)
let compare (refs : t) produced =
  List.filter_map
    (fun (key, got) ->
      match Hashtbl.find_opt refs key with
      | None -> Some (Unreferenced key)
      | Some expected when expected <> got -> Some (Differs { key; expected; got })
      | Some _ -> None)
    produced

let find (refs : t) key = Hashtbl.find_opt refs key

let digest_string s = Digest.to_hex (Digest.string s)

let mask_digest mask =
  digest_string (String.init (Array.length mask) (fun i -> if mask.(i) then '1' else '0'))

(* Floats are compared bitwise; hex keeps every bit in the text. *)
let hex_float f = Printf.sprintf "%h" f
