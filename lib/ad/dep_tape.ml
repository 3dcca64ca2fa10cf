(* Edges-only dependence tape: like {!Tape} but without partial
   derivatives (8 bytes per node).  Backed by {!Activity} (float
   dependence analysis) and {!Itaint} (integer dependence analysis);
   criticality is reverse reachability from the output node. *)

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable n : int;
  mutable lhs : i32;
  mutable rhs : i32;
  mutable last : Tape_intf.sweep_stats option;
}

let alloc n : i32 = Bigarray.(Array1.create int32 c_layout n)

let create ?(capacity = 1024) () =
  let capacity = Stdlib.min (Stdlib.max capacity 16) Tape_intf.max_nodes in
  { n = 0; lhs = alloc capacity; rhs = alloc capacity; last = None }

let length t = t.n
let capacity t = Bigarray.Array1.dim t.lhs

let clear t =
  t.n <- 0;
  t.last <- None

(* Doubling clamped at the int32 id limit; a full tape at the limit
   raises [Tape_intf.Too_many_nodes]. *)
let grow t =
  Tape_intf.check_nodes (t.n + 1);
  let old = capacity t in
  let cap = Stdlib.min (old * 2) Tape_intf.max_nodes in
  let lhs = alloc cap and rhs = alloc cap in
  Bigarray.Array1.(blit t.lhs (sub lhs 0 old));
  Bigarray.Array1.(blit t.rhs (sub rhs 0 old));
  t.lhs <- lhs;
  t.rhs <- rhs

let push t l r =
  if t.n = capacity t then grow t;
  let i = t.n in
  t.lhs.{i} <- Int32.of_int l;
  t.rhs.{i} <- Int32.of_int r;
  t.n <- i + 1;
  i

let fresh_var t = push t (-1) (-1)
let push1 t p = push t p (-1)
let push2 t l r = push t l r

(* Set of nodes the output depends on, as a bitset. *)
type reach = { bits : Bytes.t; upto : int }

let mark bits i =
  let byte = i lsr 3 and bit = i land 7 in
  Bytes.unsafe_set bits byte
    (Char.chr (Char.code (Bytes.unsafe_get bits byte) lor (1 lsl bit)))

let marked bits i =
  let byte = i lsr 3 and bit = i land 7 in
  Char.code (Bytes.unsafe_get bits byte) land (1 lsl bit) <> 0

let backward t ~output =
  if output < 0 || output >= t.n then
    invalid_arg
      (Printf.sprintf
         "Dep_tape.backward: output node %d is not on the tape (%d node%s \
          recorded)"
         output t.n
         (if t.n = 1 then "" else "s"));
  let bits = Bytes.make ((output / 8) + 1) '\000' in
  mark bits output;
  (* Frontier scan: unmarked nodes are outside the dependence cone and
     are skipped 8 or 64 at a time without being read.  Sound because a
     mark only ever lands at an id strictly below the node being
     processed (parents precede children), so a skipped range can never
     gain a mark after the scan has passed it. *)
  let visited = ref 0 in
  let i = ref output in
  while !i >= 0 do
    let ip = !i in
    let byte = ip lsr 3 in
    if ip land 7 = 7 && Bytes.unsafe_get bits byte = '\000' then
      if
        ip land 63 = 63 && byte >= 7
        && Bytes.get_int64_ne bits (byte - 7) = 0L
      then i := ip - 64
      else i := ip - 8
    else begin
      if marked bits ip then begin
        incr visited;
        let l = Int32.to_int t.lhs.{ip} in
        if l >= 0 then mark bits l;
        let r = Int32.to_int t.rhs.{ip} in
        if r >= 0 then mark bits r
      end;
      i := ip - 1
    end
  done;
  t.last <-
    Some { Tape_intf.visited_nodes = !visited; swept_nodes = output + 1 };
  { bits; upto = output }

let last_sweep t = t.last

let reachable g id = id >= 0 && id <= g.upto && marked g.bits id
