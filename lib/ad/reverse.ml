(* Reverse-mode AD scalar (the Enzyme substitute).

   A value is (tape node id, primal).  Constants carry id = -1 and fold:
   arithmetic between constants records nothing, so running a kernel
   "before" the checkpoint boundary — when no variable has been lifted
   yet — costs no tape space at all. *)

type t = { id : int; v : float }

let const v = { id = -1; v }
let value x = x.v
let node_id x = x.id
let is_const x = x.id < 0

(* The push rules, written once over the recording half of a tape: the
   engine ({!Tape}) records and sweeps through them, and the counting
   tape ({!Tape.Counting}) predicts node ids with exactly the same
   pushes. *)
module Record (T : Tape_intf.RECORD) = struct
  let var tape v = { id = T.fresh_var tape; v }
  let lift tape x = if is_const x then var tape x.v else x

  module Scalar_of (Tp : sig
    val tape : T.t
  end) : Scalar.S with type t = t = struct
    type nonrec t = t

    let tape = Tp.tape
    let zero = const 0.
    let one = const 1.
    let of_float v = const v
    let of_int i = const (float_of_int i)
    let to_float x = x.v

    let[@inline] node1 v p dp = { id = T.push1 tape p.id dp; v }

    let[@inline] node2 v a da b db =
      { id = T.push2 tape a.id da b.id db; v }

    let[@inline] ( +. ) a b =
      let v = a.v +. b.v in
      if a.id < 0 && b.id < 0 then const v else node2 v a 1. b 1.

    let[@inline] ( -. ) a b =
      let v = a.v -. b.v in
      if a.id < 0 && b.id < 0 then const v else node2 v a 1. b (-1.)

    let[@inline] ( *. ) a b =
      let v = a.v *. b.v in
      if a.id < 0 && b.id < 0 then const v else node2 v a b.v b a.v

    let[@inline] ( /. ) a b =
      let v = a.v /. b.v in
      if a.id < 0 && b.id < 0 then const v
      else node2 v a Stdlib.(1. /. b.v) b Stdlib.(-.a.v /. (b.v *. b.v))

    let[@inline] ( ~-. ) a =
      let v = -.a.v in
      if a.id < 0 then const v else node1 v a (-1.)

    let sqrt a =
      let v = Stdlib.sqrt a.v in
      if a.id < 0 then const v else node1 v a Stdlib.(0.5 /. v)

    let exp a =
      let v = Stdlib.exp a.v in
      if a.id < 0 then const v else node1 v a v

    let log a =
      let v = Stdlib.log a.v in
      if a.id < 0 then const v else node1 v a Stdlib.(1. /. a.v)

    let sin a =
      let v = Stdlib.sin a.v in
      if a.id < 0 then const v else node1 v a (Stdlib.cos a.v)

    let cos a =
      let v = Stdlib.cos a.v in
      if a.id < 0 then const v else node1 v a Stdlib.(-.sin a.v)

    (* d|x|/dx = sign x; at 0 we keep the dependence with subgradient 1
       so that an element read through [abs] at exactly 0 is not
       misclassified as uncritical. *)
    let abs a =
      let v = Stdlib.abs_float a.v in
      if a.id < 0 then const v
      else node1 v a (if a.v >= 0. then 1. else -1.)

    (* max/min select by primal; the derivative follows the winner. *)
    let max a b =
      if a.id < 0 && b.id < 0 then const (Stdlib.Float.max a.v b.v)
      else if a.v >= b.v then node2 a.v a 1. b 0.
      else node2 b.v a 0. b 1.

    let min a b =
      if a.id < 0 && b.id < 0 then const (Stdlib.Float.min a.v b.v)
      else if a.v <= b.v then node2 a.v a 1. b 0.
      else node2 b.v a 0. b 1.

    let compare a b = Stdlib.compare a.v b.v
    let equal a b = a.v = b.v
    let ( < ) a b = a.v < b.v
    let ( <= ) a b = a.v <= b.v
    let ( > ) a b = a.v > b.v
    let ( >= ) a b = a.v >= b.v
  end
end

module On_tape = Record (Tape)

let var = On_tape.var
let lift = On_tape.lift

module Scalar_of = On_tape.Scalar_of

(* Gradients of a backward sweep; [None] when the output never touched a
   lifted variable (all derivatives are then 0). *)
type gradients = Tape.adjoints option

let backward tape (output : t) =
  if is_const output then None else Some (Tape.backward tape ~output:output.id)

let grad g x =
  match g with None -> 0. | Some adj -> Tape.adjoint adj x.id
