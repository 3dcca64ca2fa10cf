(** Deterministic fault injection on the checkpoint I/O path.

    A {!plan} carries a seeded PRNG stream; every write/read routed
    through it may suffer at most one injected fault: a torn write
    (prefix only lands), a truncation (tail lost), a single-bit flip, or
    a transient EINTR-style failure that the wrapper retries with
    bounded exponential backoff.  Same seed + same operation sequence ⇒
    the same faults, so degradation paths are replayable in tests. *)

type kind = Torn_write | Truncation | Bit_flip | Transient

val kind_name : kind -> string

(** One injected fault: which operation (1-based), on which path. *)
type event = { op : int; path : string; kind : kind; detail : string }

type plan

(** [plan ~seed ()] builds an injection plan.  Rates are per-operation
    probabilities in [0,1]; their sum is the total fault probability
    (at most one fault per operation).  Transient faults fail
    1..[max_transient_failures] attempts (default 2) before succeeding,
    staying below the internal retry bound (5 attempts).
    Raises [Invalid_argument] on rates outside [0,1]. *)
val plan :
  ?torn_write_rate:float ->
  ?truncation_rate:float ->
  ?bit_flip_rate:float ->
  ?transient_rate:float ->
  ?max_transient_failures:int ->
  seed:int ->
  unit ->
  plan

(** Injected faults so far, oldest first. *)
val events : plan -> event list

(** [write_file ?faults path data] writes [data] to [path], routing
    through the fault plan when given: the landed bytes may be torn,
    truncated, or bit-flipped, and transient failures are retried with
    bounded backoff. *)
val write_file : ?faults:plan -> string -> string -> unit

(** [read_file ?faults path] reads the whole file; transient injected
    failures are retried with bounded backoff.  [Error] carries the
    OS or retry-exhaustion message. *)
val read_file : ?faults:plan -> string -> (string, string) result
