(* Reverse-mode AD scalar (the Enzyme substitute).

   A value is (tape node id, primal), both stored as floats so the
   record is one flat float block of 3 heap words and a primal is never
   boxed on its own.  Ids are exact: a tape holds at most 2^31 nodes
   and a float holds every integer below 2^53.  Constants carry id -1
   and fold: arithmetic between constants records nothing, so running a
   kernel "before" the checkpoint boundary — when no variable has been
   lifted yet — costs no tape space at all. *)

type t = { id : float; v : float }

let const v = { id = -1.; v }
let value x = x.v
let node_id x = Float.to_int x.id
let is_const x = x.id < 0.

(* The push rules, written once.  [Tape] here is the engine, whose
   pushes are known functions that inline, so no primal or partial is
   boxed on its way to a slab.  float/record.sed derives the counting
   tape's instance (float/dune) and the seed tape's (test/seed/dune)
   from this text by rebinding [Tape]; it keeps everything up to the
   sweep below. *)
let var tape v = { id = Float.of_int (Tape.fresh_var tape); v }
let lift tape x = if is_const x then var tape x.v else x

let[@inline] node1 tape v p dp =
  { id = Float.of_int (Tape.push1 tape (Float.to_int p.id) dp); v }

let[@inline] node2 tape v a da b db =
  let id = Tape.push2 tape (Float.to_int a.id) da (Float.to_int b.id) db in
  { id = Float.of_int id; v }

module Scalar_of (Tp : sig
  val tape : Tape.t
end) : Scalar.S with type t = t = struct
  type nonrec t = t

  let tape = Tp.tape
  let zero = const 0.
  let one = const 1.
  let of_float v = const v
  let of_int i = const (float_of_int i)
  let to_float x = x.v

  let[@inline] ( +. ) a b =
    let v = a.v +. b.v in
    if a.id < 0. && b.id < 0. then const v else node2 tape v a 1. b 1.

  let[@inline] ( -. ) a b =
    let v = a.v -. b.v in
    if a.id < 0. && b.id < 0. then const v else node2 tape v a 1. b (-1.)

  let[@inline] ( *. ) a b =
    let v = a.v *. b.v in
    if a.id < 0. && b.id < 0. then const v else node2 tape v a b.v b a.v

  let[@inline] ( /. ) a b =
    let v = a.v /. b.v in
    if a.id < 0. && b.id < 0. then const v
    else node2 tape v a Stdlib.(1. /. b.v) b Stdlib.(-.a.v /. (b.v *. b.v))

  let[@inline] ( ~-. ) a =
    let v = -.a.v in
    if a.id < 0. then const v else node1 tape v a (-1.)

  let sqrt a =
    let v = Stdlib.sqrt a.v in
    if a.id < 0. then const v else node1 tape v a Stdlib.(0.5 /. v)

  let exp a =
    let v = Stdlib.exp a.v in
    if a.id < 0. then const v else node1 tape v a v

  let log a =
    let v = Stdlib.log a.v in
    if a.id < 0. then const v else node1 tape v a Stdlib.(1. /. a.v)

  let sin a =
    let v = Stdlib.sin a.v in
    if a.id < 0. then const v else node1 tape v a (Stdlib.cos a.v)

  let cos a =
    let v = Stdlib.cos a.v in
    if a.id < 0. then const v else node1 tape v a Stdlib.(-.sin a.v)

  (* d|x|/dx = sign x; at 0 we keep the dependence with subgradient 1
     so that an element read through [abs] at exactly 0 is not
     misclassified as uncritical. *)
  let abs a =
    let v = Stdlib.abs_float a.v in
    if a.id < 0. then const v
    else node1 tape v a (if a.v >= 0. then 1. else -1.)

  (* max/min select by primal; the derivative follows the winner. *)
  let max a b =
    if a.id < 0. && b.id < 0. then const (Stdlib.Float.max a.v b.v)
    else if a.v >= b.v then node2 tape a.v a 1. b 0.
    else node2 tape b.v a 0. b 1.

  let min a b =
    if a.id < 0. && b.id < 0. then const (Stdlib.Float.min a.v b.v)
    else if a.v <= b.v then node2 tape a.v a 1. b 0.
    else node2 tape b.v a 0. b 1.

  let compare a b = Stdlib.compare a.v b.v
  let equal a b = a.v = b.v
  let ( < ) a b = a.v < b.v
  let ( <= ) a b = a.v <= b.v
  let ( > ) a b = a.v > b.v
  let ( >= ) a b = a.v >= b.v
end

(* The sweep: engine only, never part of a derived recorder. *)

(* Gradients of a backward sweep; [None] when the output never touched a
   lifted variable (all derivatives are then 0). *)
type gradients = Tape.adjoints option

let backward tape (output : t) =
  if is_const output then None
  else Some (Tape.backward tape ~output:(node_id output))

let grad g x =
  match g with None -> 0. | Some adj -> Tape.adjoint adj (node_id x)
