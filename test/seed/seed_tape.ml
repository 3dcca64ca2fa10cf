(* The seed's tape: one set of Bigarrays, doubled and copied on growth,
   swept by a dense descending scan.  It shares no code with
   [Scvad_ad.Tape], so it is the independent reference for that engine:
   the property tests compare the engine's adjoints against it bitwise,
   and bench/main.exe times the engine's push and sweep against it.
   Satisfies [Tape_intf.RECORD], so [Reverse.Record (Seed_tape)] records
   onto it with the engine's push rules. *)

type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable n : int;
  mutable lhs : i32;
  mutable rhs : i32;
  mutable dlhs : f64;
  mutable drhs : f64;
}

let alloc_i32 n : i32 = Bigarray.(Array1.create int32 c_layout n)
let alloc_f64 n : f64 = Bigarray.(Array1.create float64 c_layout n)

(* [capacity] presizes the arrays (default 16) so a large reference
   recording need not double its way up. *)
let create ?(capacity = 16) () =
  let c = max capacity 16 in
  { n = 0; lhs = alloc_i32 c; rhs = alloc_i32 c; dlhs = alloc_f64 c;
    drhs = alloc_f64 c }

let length t = t.n
let capacity t = Bigarray.Array1.dim t.lhs
let clear t = t.n <- 0

let grow t =
  let old = capacity t in
  let cap = old * 2 in
  let lhs = alloc_i32 cap and rhs = alloc_i32 cap in
  let dlhs = alloc_f64 cap and drhs = alloc_f64 cap in
  Bigarray.Array1.(blit t.lhs (sub lhs 0 old));
  Bigarray.Array1.(blit t.rhs (sub rhs 0 old));
  Bigarray.Array1.(blit t.dlhs (sub dlhs 0 old));
  Bigarray.Array1.(blit t.drhs (sub drhs 0 old));
  t.lhs <- lhs;
  t.rhs <- rhs;
  t.dlhs <- dlhs;
  t.drhs <- drhs

let push t l dl r dr =
  if t.n = capacity t then grow t;
  let i = t.n in
  t.lhs.{i} <- Int32.of_int l;
  t.rhs.{i} <- Int32.of_int r;
  t.dlhs.{i} <- dl;
  t.drhs.{i} <- dr;
  t.n <- i + 1;
  i

let fresh_var t = push t (-1) 0. (-1) 0.
let push1 t p dp = push t p dp (-1) 0.
let push2 = push

(* Adjoints of every node at or below [output]: the dense scan visits
   every id and skips only exact-zero adjoints. *)
let backward t ~output =
  let adj = alloc_f64 (output + 1) in
  Bigarray.Array1.fill adj 0.;
  adj.{output} <- 1.;
  for i = output downto 0 do
    let a = adj.{i} in
    (* lint: allow float-equality — exact-zero adjoint skip, replicated
       from the seed tape so the comparison stays faithful *)
    if a <> 0. then begin
      let l = Int32.to_int t.lhs.{i} in
      if l >= 0 then adj.{l} <- adj.{l} +. (a *. t.dlhs.{i});
      let r = Int32.to_int t.rhs.{i} in
      if r >= 0 then adj.{r} <- adj.{r} +. (a *. t.drhs.{i})
    end
  done;
  adj

(* Adjoint of node [id] in a [backward] result; 0 for constants and for
   nodes above the output. *)
let adjoint (adj : f64) id =
  if id < 0 || id >= Bigarray.Array1.dim adj then 0. else adj.{id}
