(* The kernels the cost model predicts: the registered benchmarks, plus
   the three grid-parameterized ADI kernels the polynomial fit
   instantiates at grid sizes no registered configuration uses. *)

open Scvad_npb

module type SIZED = functor
  (_ : Adi_common.GRID)
  (S : Scvad_ad.Scalar.S)
  -> Scvad_core.App.INSTANCE with type scalar = S.t

type t = {
  apps : (module Scvad_core.App.S) list;
  sized : (string * (module SIZED)) list;  (** family name, functor *)
}

(* [npb_dir] is ignored: predictions run the compiled kernels and read
   no source.  It is kept only for the benchmark harness, which passes
   it. *)
let load ?npb_dir:_ () =
  {
    apps = Suite.extended;
    sized =
      [
        ("bt", (module Bt.Make_sized : SIZED));
        ("sp", (module Sp.Make_sized : SIZED));
        ("lu", (module Lu.Make_sized : SIZED));
      ];
  }

let find_app world name =
  List.find_opt
    (fun (module A : Scvad_core.App.S) -> A.name = name)
    world.apps
