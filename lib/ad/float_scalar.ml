(* Plain-float instantiation of {!Scalar.S}. *)

type t = float

let zero = 0.
let one = 1.
let of_float x = x
let of_int = float_of_int
let to_float x = x

let ( +. ) = Stdlib.( +. )
let ( -. ) = Stdlib.( -. )
let ( *. ) = Stdlib.( *. )
let ( /. ) = Stdlib.( /. )
let ( ~-. ) = Stdlib.( ~-. )

let sqrt = Stdlib.sqrt
let exp = Stdlib.exp
let log = Stdlib.log
let sin = Stdlib.sin
let cos = Stdlib.cos
let abs = Stdlib.abs_float
let max = Stdlib.Float.max
let min = Stdlib.Float.min

let compare = Stdlib.compare
let equal (a : float) b = a = b
let ( < ) (a : float) b = a < b
let ( <= ) (a : float) b = a <= b
let ( > ) (a : float) b = a > b
let ( >= ) (a : float) b = a >= b
