(* IS — Integer Sort (NPB kernel, class S: 2^16 keys, 2^11 key range,
   512 buckets, 10 iterations).

   Bucket sort: each rank() iteration plants two iteration-dependent
   keys, counts keys per bucket, builds the bucket pointers by prefix
   sum, distributes the keys, and runs a partial verification; after the
   last iteration full_verify checks the distribution using the bucket
   pointers left by the final rank.

   This is an all-integer benchmark, so criticality comes from the
   integer dependence tracer ({!Scvad_ad.Itaint}) instead of
   derivatives.  The kernel is written once, as a functor over INT_OPS,
   and instantiated twice: plain ints for execution/checkpointing, and
   traced ints for the analysis.  The analysis covers two checkpoint
   boundaries and takes the union (an element is critical if some
   checkpoint needs it):
   - mid-run (before the last rank): rank reads every key_array element
     — key_array is critical;
   - pre-verification (after the last rank): full_verify reads every
     bucket_ptrs element — bucket_ptrs is critical.
   This mechanizes the paper's manual claim that both arrays plus
   passed_verification and iteration are fully critical. *)

let total_keys = 1 lsl 16
let max_key = 1 lsl 11
let num_buckets = 1 lsl 9
let bucket_shift = 2 (* log2 (max_key / num_buckets) *)
let iterations = 10
let test_values = [ 17; 129; 511; 1025; 2001 ]

(* Integer operations abstracted so the same kernel runs plain or
   traced. *)
module type INT_OPS = sig
  type t

  val const : int -> t
  val value : t -> int
  val add : t -> t -> t
  val sub : t -> t -> t
  val shift_right : t -> int -> t

  (** 0/1 result carrying dependence on both operands. *)
  val le : t -> t -> t

  val eq : t -> t -> t

  (** Array access through a possibly-traced subscript. *)
  val get : t array -> t -> t

  val set : t array -> t -> t -> unit
end

module Plain_ops : INT_OPS with type t = int = struct
  type t = int

  let const v = v
  let value v = v
  let add = ( + )
  let sub = ( - )
  let shift_right v k = v asr k
  let le a b = if a <= b then 1 else 0
  let eq a b = if a = b then 1 else 0
  let get (a : int array) i = a.(i)
  let set (a : int array) i x = a.(i) <- x
end

module Traced_ops (T : sig
  val tape : Scvad_ad.Tape.t
end) : INT_OPS with type t = Scvad_ad.Itaint.t = struct
  open Scvad_ad

  type t = Itaint.t

  let const = Itaint.const
  let value = Itaint.value
  let add = Itaint.add T.tape
  let sub = Itaint.sub T.tape
  let shift_right = Itaint.shift_right T.tape
  let le = Itaint.le T.tape
  let eq = Itaint.eq T.tape
  let get = Itaint.get T.tape
  let set = Itaint.set T.tape
end

module Kernel (O : INT_OPS) = struct
  type state = {
    key_array : O.t array; (* checkpoint variable *)
    bucket_ptrs : O.t array; (* checkpoint variable *)
    mutable passed_verification : O.t; (* checkpoint variable *)
    key_buff2 : O.t array; (* distributed keys (work array) *)
    mutable iter_done : int;
  }

  (* NPB create_seq: keys from four summed randlc deviates. *)
  let create () =
    let rng = Scvad_nprand.Nprand.create Scvad_nprand.Nprand.cg_seed in
    let key_array =
      Array.init total_keys (fun _ ->
          let x =
            Scvad_nprand.Nprand.next rng
            +. Scvad_nprand.Nprand.next rng
            +. Scvad_nprand.Nprand.next rng
            +. Scvad_nprand.Nprand.next rng
          in
          O.const (int_of_float (float_of_int (max_key / 4) *. x)))
    in
    {
      key_array;
      bucket_ptrs = Array.make num_buckets (O.const 0);
      passed_verification = O.const 0;
      key_buff2 = Array.make total_keys (O.const 0);
      iter_done = 0;
    }

  (* One NPB rank() call (1-based iteration number). *)
  let rank st ~iteration =
    (* Plant the two iteration-dependent keys. *)
    st.key_array.(iteration) <- O.const iteration;
    st.key_array.(iteration + iterations) <- O.const (max_key - iteration);
    (* Bucket counting. *)
    let bucket_size = Array.make num_buckets (O.const 0) in
    Array.iter
      (fun key ->
        let b = O.shift_right key bucket_shift in
        O.set bucket_size b (O.add (O.get bucket_size b) (O.const 1)))
      st.key_array;
    (* Prefix sums into the bucket pointers. *)
    st.bucket_ptrs.(0) <- O.const 0;
    for b = 1 to num_buckets - 1 do
      st.bucket_ptrs.(b) <- O.add st.bucket_ptrs.(b - 1) bucket_size.(b - 1)
    done;
    (* Distribution (advances the pointers to the bucket ends). *)
    Array.iter
      (fun key ->
        let b = O.shift_right key bucket_shift in
        let p = O.get st.bucket_ptrs b in
        O.set st.key_buff2 p key;
        O.set st.bucket_ptrs b (O.add p (O.const 1)))
      st.key_array;
    (* Partial verification: the rank of each test value must be
       monotone in the value — checked through the bucket pointers. *)
    List.iter
      (fun v ->
        let b1 = v asr bucket_shift and b2 = (v + 2) asr bucket_shift in
        let ok =
          O.le
            (O.get st.bucket_ptrs (O.const b1))
            (O.get st.bucket_ptrs (O.const b2))
        in
        st.passed_verification <- O.add st.passed_verification ok)
      test_values

  (* NPB full_verify: every distributed key must live in the bucket its
     value selects, delimited by the pointers the last rank left. *)
  let full_verify st =
    (* Walk buckets through the pointer array. *)
    let prev_end = ref (O.const 0) in
    for b = 0 to num_buckets - 1 do
      let stop = st.bucket_ptrs.(b) in
      (* Slice well-formedness: pointers must be monotone.  This also
         verifies the pointers of empty buckets. *)
      st.passed_verification <-
        O.add st.passed_verification (O.le !prev_end stop);
      let j = ref (O.value !prev_end) in
      while !j < O.value stop do
        let key = O.get st.key_buff2 (O.const !j) in
        let ok = O.eq (O.shift_right key bucket_shift) (O.const b) in
        (* Tie the slice bounds in as well: they located the key. *)
        let ok = O.add ok (O.sub (O.le !prev_end stop) (O.const 1)) in
        st.passed_verification <- O.add st.passed_verification ok;
        incr j
      done;
      prev_end := stop
    done

  let run st ~from ~until =
    for it = from to until - 1 do
      rank st ~iteration:(it + 1);
      st.iter_done <- st.iter_done + 1
    done;
    if until >= iterations && st.iter_done = iterations then full_verify st

  let output st = st.passed_verification
end

module Plain = Kernel (Plain_ops)

(* Criticality masks from the integer dependence tracer: union of the
   mid-run boundary (before the last rank) and the pre-verification
   boundary (after it). *)
(* Slab size of the taint tapes: the boundary-0 recording, the largest of
   the three, holds 6,428,328 nodes, so each recording fits one slab.
   Few large slabs also keep the GC calm: every Bigarray allocation
   paces the major collector, and one IS analysis on default-size
   (65,536-node) slabs ran 87 major collections against 28 here. *)
let taint_nodes_hint = 6_500_000

let taint_masks () =
  let analyze_at boundary =
    let tape = Scvad_ad.Tape.create ~capacity_hint:taint_nodes_hint () in
    let module O = Traced_ops (struct
      let tape = tape
    end) in
    let module K = Kernel (O) in
    let st = K.create () in
    K.run st ~from:0 ~until:boundary;
    (* Lift the checkpoint variables. *)
    let lift = Scvad_ad.Itaint.lift tape in
    Array.iteri (fun i x -> st.K.key_array.(i) <- lift x) st.K.key_array;
    Array.iteri (fun i x -> st.K.bucket_ptrs.(i) <- lift x) st.K.bucket_ptrs;
    st.K.passed_verification <- lift st.K.passed_verification;
    let keys_snapshot = Array.copy st.K.key_array in
    let ptrs_snapshot = Array.copy st.K.bucket_ptrs in
    let passed_snapshot = st.K.passed_verification in
    K.run st ~from:boundary ~until:iterations;
    let r = Scvad_ad.Itaint.backward tape (K.output st) in
    let crit = Scvad_ad.Itaint.critical r in
    ( Array.map crit keys_snapshot,
      Array.map crit ptrs_snapshot,
      crit passed_snapshot )
  in
  (* t = 0 covers the keys the later ranks plant; t = last-1 covers a
     mid-run restart; t = last covers a pre-verification restart. *)
  let k0, p0, v0 = analyze_at 0 in
  let k1, p1, v1 = analyze_at (iterations - 1) in
  let k2, p2, v2 = analyze_at iterations in
  let union3 a b c = Array.map2 ( || ) a (Array.map2 ( || ) b c) in
  [ ("key_array", union3 k0 k1 k2);
    ("bucket_ptrs", union3 p0 p1 p2);
    ("passed_verification", [| v0 || v1 || v2 |]) ]

module App : Scvad_core.App.S = struct
  let name = "is"
  let description = "Integer bucket Sort (class S)"
  let default_niter = iterations
  let analysis_niter = iterations
  let tape_nodes_hint = 4_096
  let int_taint_masks = Some taint_masks

  module Make (S : Scvad_ad.Scalar.S) = struct
    type scalar = S.t
    type state = Plain.state

    let create = Plain.create
    let run = Plain.run
    let iterations_done (st : state) = st.Plain.iter_done
    let output st = S.of_int (Plain.output st)
    let float_vars (_ : state) : S.t Scvad_core.Variable.t list = []

    let int_vars (st : state) =
      let open Scvad_core.Variable in
      [ {
          iname = "passed_verification";
          ishape = Scvad_nd.Shape.scalar;
          iget = (fun _ -> st.Plain.passed_verification);
          iset = (fun _ v -> st.Plain.passed_verification <- v);
          icrit = By_taint;
          idoc = "verification counter (write-after-read)";
        };
        int_of_array ~name:"key_array" ~crit:By_taint
          ~doc:"keys of the bucket sort"
          (Scvad_nd.Shape.create [ total_keys ])
          st.Plain.key_array;
        int_of_array ~name:"bucket_ptrs" ~crit:By_taint
          ~doc:"bucket pointers of the bucket sort"
          (Scvad_nd.Shape.create [ num_buckets ])
          st.Plain.bucket_ptrs;
        {
          iname = "iteration";
          ishape = Scvad_nd.Shape.scalar;
          iget = (fun _ -> st.Plain.iter_done);
          iset = (fun _ v -> st.Plain.iter_done <- v);
          icrit = Always_critical "main loop index";
          idoc = "main loop index";
        } ]
  end
end
