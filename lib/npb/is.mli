(** IS — Integer bucket Sort (NPB kernel, class S: 2^16 keys, 2^11 key
    range, 512 buckets, 10 iterations).

    All-integer benchmark: criticality comes from the integer
    dependence tracer ({!Scvad_ad.Itaint}) over the union of three
    checkpoint boundaries, all read off one recording.  Checkpoint variables (Table I):
    int passed_verification, int key_array[65536],
    int bucket_ptrs[512], int iteration — all critical. *)

val total_keys : int
val max_key : int
val num_buckets : int
val iterations : int

(** Integer operations abstracted so the same kernel runs plain (ints)
    or traced ({!Scvad_ad.Itaint}). *)
module type INT_OPS = sig
  type t

  val const : int -> t
  val value : t -> int
  val add : t -> t -> t
  val sub : t -> t -> t
  val shift_right : t -> int -> t
  val le : t -> t -> t
  val eq : t -> t -> t
  val get : t array -> t -> t
  val set : t array -> t -> t -> unit
end

module Plain_ops : INT_OPS with type t = int

(** The bucket-sort kernel over abstract integers. *)
module Kernel (O : INT_OPS) : sig
  type state

  val create : unit -> state
  val rank : state -> iteration:int -> unit
  val full_verify : state -> unit
  val run : state -> from:int -> until:int -> unit
  val output : state -> O.t
end

(** The checkpoint boundaries the taint masks cover: 0, 9 (before the
    last rank) and 10 (after it, before full_verify). *)
val boundaries : int list

(** Per boundary, in {!boundaries} order, the mask of every [By_taint]
    variable: one recording from boundary 0 with
    {!Scvad_ad.Itaint.mark} markers at each boundary, swept once. *)
val boundary_masks : unit -> (string * bool array) list list

(** The same masks from one recording per boundary, each prefix run on
    constants: the reference {!boundary_masks} is tested against. *)
val boundary_masks_per_recording : unit -> (string * bool array) list list

(** The masks of {!boundary_masks}, united over the boundaries. *)
val taint_masks : unit -> (string * bool array) list

module App : Scvad_core.App.S
