(** Checkpoint interval theory (Young 1974, Daly 2006).

    Translates the paper's checkpoint-size reduction into operational
    terms: the optimal checkpoint interval and the expected fraction of
    machine time lost to checkpointing and failure recovery. *)

type params = {
  checkpoint_cost : float;  (** C: seconds to write one checkpoint *)
  mtbf : float;  (** M: mean time between failures, seconds *)
  restart_cost : float;  (** R: seconds to restore and resume *)
}

(** Young's optimum √(2CM). *)
val young : params -> float

(** Daly's higher-order optimum; degrades to M when C ≥ 2M. *)
val daly : params -> float

(** Expected lost-time fraction when checkpointing every [tau] seconds:
    C/τ + (τ/2 + R + C)/M. *)
val expected_overhead : params -> tau:float -> float

type comparison = {
  full : params;
  pruned : params;
  full_tau : float;
  pruned_tau : float;
  full_overhead : float;
  pruned_overhead : float;
}

(** Scale the checkpoint cost by the kept fraction (pruned bytes /
    original bytes) and compare both operating points at their own
    optimal intervals. *)
val compare_pruning : params -> kept_fraction:float -> comparison
