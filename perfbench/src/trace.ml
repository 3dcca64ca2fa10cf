(* Spans recorded by the benchmark around each call into a layer of the
   system.  Spans stay in memory while a workload runs and are written
   out once, at exit, as Chrome trace-event JSON (Perfetto opens it).

   A span's layer is the prefix of its name before the first dot:
   ["analyzer.run"] belongs to [analyzer], ["store.save_full"] to
   [store].  Tracing off costs one branch per call. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  app : string;  (** the benchmark application the call served, or [""] *)
  start : float;
  stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0

let reset () =
  recorded := [];
  open_spans := [];
  next_id := 0

let with_span ?(app = "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      open_spans := List.filter (fun i -> i <> id) !open_spans;
      recorded := { id; parent; name; app; start; stop } :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* Spans in the order they were opened. *)
let spans () = List.sort (fun a b -> compare a.id b.id) !recorded

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let duration s = s.stop -. s.start

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of that interval its
   direct children cover.  Returned in the order of [spans]. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, Float.max 0. (duration s -. covered ~lo:s.start ~hi:s.stop kids)))
    spans

(* Summed self time of the spans [pred] selects. *)
let self_sum pred selfs =
  List.fold_left (fun acc (s, t) -> if pred s then acc +. t else acc) 0. selfs

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span. *)
let to_chrome_json spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let event s =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"app\":\"%s\"}}"
      (json_escape s.name)
      (json_escape (layer_of s.name))
      ((s.start -. t0) *. 1e6)
      (duration s *. 1e6) s.id s.parent (json_escape s.app)
  in
  "[" ^ String.concat ",\n" (List.map event spans) ^ "]\n"
