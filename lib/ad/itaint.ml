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

type t = { id : int; v : int }

let const v = { id = -1; v }
let value x = x.v
let node_id x = x.id
let is_const x = x.id < 0
let var tape v = { id = Tape.fresh_var tape; v }

(* A checkpoint marker: a fresh var for a constant, an identity node
   otherwise.  Every later use of the value goes through the marker, so
   whether the output reaches it says whether a checkpoint taken here
   needs the value, while one recording still covers every boundary. *)
let mark tape x =
  if is_const x then var tape x.v else { id = Tape.push1 tape x.id 0.; v = x.v }

let node2 tape v a b =
  if a.id < 0 && b.id < 0 then const v
  else { id = Tape.push2 tape a.id 0. b.id 0.; v }

let add tape a b = node2 tape (a.v + b.v) a b
let sub tape a b = node2 tape (a.v - b.v) a b
let mul tape a b = node2 tape (a.v * b.v) a b
let div tape a b = node2 tape (a.v / b.v) a b
let rem tape a b = node2 tape (a.v mod b.v) a b
let shift_right tape a k = node2 tape (a.v asr k) a (const 0)
let shift_left tape a k = node2 tape (a.v lsl k) a (const 0)
let logand tape a b = node2 tape (a.v land b.v) a b

(* Comparisons return a traced 0/1 so that counters updated under a
   data-dependent branch inherit the dependence (control dependence made
   explicit — how IS's [passed_verification] stays critical). *)
let lt tape a b = node2 tape (if a.v < b.v then 1 else 0) a b
let le tape a b = node2 tape (if a.v <= b.v then 1 else 0) a b
let eq tape a b = node2 tape (if a.v = b.v then 1 else 0) a b

(* Array read through a traced subscript: the result depends on the cell
   value and on the subscript. *)
let get tape (arr : t array) (idx : t) =
  let cell = arr.(idx.v) in
  if cell.id < 0 && idx.id < 0 then const cell.v
  else { id = Tape.push2 tape cell.id 0. idx.id 0.; v = cell.v }

(* Array write through a traced subscript: the stored value additionally
   depends on the subscript that selected the cell. *)
let set tape (arr : t array) (idx : t) (x : t) =
  let stored =
    if idx.id < 0 then x
    else { id = Tape.push2 tape x.id 0. idx.id 0.; v = x.v }
  in
  arr.(idx.v) <- stored

type result = Tape.reach option

let backward tape (output : t) =
  if is_const output then None
  else Some (Tape.reach tape ~output:output.id)

let critical r x =
  match r with None -> false | Some g -> Tape.reachable g x.id
