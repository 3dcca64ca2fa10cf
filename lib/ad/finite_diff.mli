(** Central-difference numerical derivatives.

    Independent oracle for the AD engines: shares no code with the tapes,
    so agreement (within truncation error) is strong evidence of
    correctness. *)

(** [step ?h x] is the effective step at coordinate value [x]:
    [h *. max 1.0 (abs x)] — absolute for small coordinates, relative
    for large ones, so the difference quotient never drowns in
    cancellation ([h] defaults to 1e-6). *)
val step : ?h:float -> float -> float

(** [derivative ?h f x i] ≈ ∂f/∂x{_i} at [x] by central difference with
    the relative step [step ?h x.(i)].  [x] is mutated during evaluation
    and restored before returning. *)
val derivative : ?h:float -> (float array -> float) -> float array -> int -> float

(** Full gradient, one {!derivative} call per coordinate. *)
val gradient : ?h:float -> (float array -> float) -> float array -> float array
