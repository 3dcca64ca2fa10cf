(** NPB pseudo-random number generator ([randlc] family).

    The multiplicative linear congruence x ← a·x mod 2{^46}, evaluated
    exactly in double precision via 23-bit splitting — a faithful port of
    the generator all NPB benchmarks share.  Deterministic across runs,
    which matters for checkpoint/restart testing: a restarted run must
    regenerate the identical stream. *)

type t

(** NPB's canonical multiplier, 5{^13} = 1220703125. *)
val default_mult : float

(** EP's default seed (271828183). *)
val ep_seed : float

(** CG's default seed (314159265). *)
val cg_seed : float

val create : float -> t

(** Current seed (a float holding an exact 46-bit integer). *)
val seed : t -> float

(** One step with multiplier [a]; returns a uniform deviate in (0,1). *)
val randlc : t -> a:float -> float

(** One step with {!default_mult}. *)
val next : t -> float

(** [vranlc t ~a n dst off] fills [dst.(off .. off+n-1)] with the next
    [n] deviates: bit for bit the values of [n] successive
    [randlc t ~a] calls, and it leaves the same seed.  Past the first
    four it runs four interleaved chains, x{_k+4} = a{^4}·x{_k}
    mod 2{^46} (exact in doubles like every step), so consecutive
    deviates no longer wait on each other's multiply chain. *)
val vranlc : t -> a:float -> int -> float array -> int -> unit

(** [ipow46 a e] = the seed reached from 1 after multiplying [e] times by
    [a] (i.e. a{^e} mod 2{^46}); NPB's stream jump-ahead. *)
val ipow46 : float -> int -> float
