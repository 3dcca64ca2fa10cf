(* Integer dependence tracer.

   AD does not apply to integers, so the paper argues integer checkpoint
   variables (loop indices, IS's sort keys and bucket pointers) critical
   by inspection.  This module mechanizes the argument: traced ints carry
   a node of the reverse tape (pushed with zero partials — only the
   edges matter), operations join parent dependences, and —
   crucially for bucket sort — a traced int used as an {e array subscript}
   taints the accessed element, so "this pointer stores the index of that
   array" becomes a real edge in the graph.  Criticality is then reverse
   reachability from the output, exactly as for floats. *)

(* A traced int is one immediate: the node id in the high 31 bits
   (signed, so a constant's -1 fits) and the value as a signed 32-bit
   int in the low 32.  Nothing is boxed, so IS's taint arrays are flat
   int arrays and a traced operation allocates nothing. *)
type t = int

exception Overflow of { op : string; id : int; value : int }

let max_id = (1 lsl 30) - 1
let min_value = -(1 lsl 31)
let max_value = (1 lsl 31) - 1

let[@inline] pack op id v =
  if id > max_id || v < min_value || v > max_value then
    raise (Overflow { op; id; value = v });
  (id lsl 32) lor (v land 0xFFFF_FFFF)

let const v = pack "const" (-1) v
let value x = (x lsl 31) asr 31
let node_id x = x asr 32
let is_const x = x < 0
let var tape v = pack "var" (Tape.fresh_var tape) v

(* A checkpoint marker: a fresh var for a constant, an identity node
   otherwise.  Every later use of the value goes through the marker, so
   whether the output reaches it says whether a checkpoint taken here
   needs the value, while one recording still covers every boundary. *)
let mark tape x =
  if is_const x then var tape (value x)
  else pack "mark" (Tape.push1 tape (node_id x) 0.) (value x)

(* Only edges matter, so both partials are 0: the tape stores such a
   node in one slot with no overflow partial. *)
let node2 op tape v a b =
  if is_const a && is_const b then pack op (-1) v
  else pack op (Tape.push2 tape (node_id a) 0. (node_id b) 0.) v

let add tape a b = node2 "add" tape (value a + value b) a b
let sub tape a b = node2 "sub" tape (value a - value b) a b
let mul tape a b = node2 "mul" tape (value a * value b) a b
let div tape a b = node2 "div" tape (value a / value b) a b
let rem tape a b = node2 "rem" tape (value a mod value b) a b
let shift_right tape a k = node2 "shift_right" tape (value a asr k) a (const 0)
let shift_left tape a k = node2 "shift_left" tape (value a lsl k) a (const 0)
let logand tape a b = node2 "logand" tape (value a land value b) a b

(* Comparisons return a traced 0/1 so that counters updated under a
   data-dependent branch inherit the dependence (control dependence made
   explicit — how IS's [passed_verification] stays critical). *)
let lt tape a b = node2 "lt" tape (if value a < value b then 1 else 0) a b
let le tape a b = node2 "le" tape (if value a <= value b then 1 else 0) a b
let eq tape a b = node2 "eq" tape (if value a = value b then 1 else 0) a b

(* Array read through a traced subscript: the result depends on the cell
   value and on the subscript. *)
let get tape (arr : t array) (idx : t) =
  let cell = arr.(value idx) in
  node2 "get" tape (value cell) cell idx

(* Array write through a traced subscript: the stored value additionally
   depends on the subscript that selected the cell. *)
let set tape (arr : t array) (idx : t) (x : t) =
  let stored =
    if is_const idx then x
    else pack "set" (Tape.push2 tape (node_id x) 0. (node_id idx) 0.) (value x)
  in
  arr.(value idx) <- stored

type result = Tape.reach option

let backward tape (output : t) =
  if is_const output then None
  else Some (Tape.reach tape ~output:(node_id output))

let critical r x =
  match r with None -> false | Some g -> Tape.reachable g (node_id x)
