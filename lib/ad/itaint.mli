(** Integer dependence tracer.

    Mechanizes the paper's manual criticality argument for integer
    checkpoint variables (IS's [key_array], [bucket_ptrs], loop indices):
    traced ints record a dependence graph — including dependence through
    array subscripts and through comparisons — and an element is critical
    iff the output is reachable from it. *)

type t = { id : int; v : int }

val const : int -> t
val value : t -> int
val node_id : t -> int
val is_const : t -> bool

(** Introduce one traced element. *)
val var : Tape.t -> int -> t

(** [mark tape x] stands for [x] from a checkpoint boundary on: a fresh
    element for a constant, an identity node otherwise.  The output
    reaches the marker iff a checkpoint taken there needs [x], so one
    recording with markers at several boundaries answers for all of
    them. *)
val mark : Tape.t -> t -> t

val add : Tape.t -> t -> t -> t
val sub : Tape.t -> t -> t -> t
val mul : Tape.t -> t -> t -> t
val div : Tape.t -> t -> t -> t
val rem : Tape.t -> t -> t -> t
val shift_right : Tape.t -> t -> int -> t
val shift_left : Tape.t -> t -> int -> t
val logand : Tape.t -> t -> t -> t

(** Traced comparisons: result value is 0/1 and depends on both sides, so
    branch-controlled counters inherit the dependence. *)
val lt : Tape.t -> t -> t -> t

val le : Tape.t -> t -> t -> t
val eq : Tape.t -> t -> t -> t

(** [get tape arr idx] reads [arr] at a traced subscript; the result
    depends on both the cell and the subscript. *)
val get : Tape.t -> t array -> t -> t

(** [set tape arr idx x] writes through a traced subscript; the stored
    value additionally depends on the subscript. *)
val set : Tape.t -> t array -> t -> t -> unit

type result

(** Dependence sweep ({!Tape.reach}) from the output. *)
val backward : Tape.t -> t -> result

(** Does the output depend on this traced int? *)
val critical : result -> t -> bool
