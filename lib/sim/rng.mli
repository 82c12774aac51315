(** Deterministic pseudo-random numbers for simulations.

    A splitmix64 generator: fast, well distributed, and splittable so that
    independent simulation components can draw from statistically independent
    streams derived from a single experiment seed. Reproducibility is part of
    the contract: the same seed always yields the same sequence.

    The state is 8 unboxed bytes, so [int], [bool] and [uniform_int]
    allocate nothing per draw, and neither does [int64] when the caller's
    build can inline it (any profile but dune's [dev], which compiles with
    [-opaque]). *)

type t
(** A mutable generator state. *)

val create : int64 -> t
(** [create seed] is a fresh generator seeded with [seed]. *)

val split : t -> t
(** [split r] is a new generator whose stream is independent of the
    subsequent outputs of [r]. Advances [r]. *)

val copy : t -> t
(** [copy r] duplicates the current state of [r]; both generators then
    produce the same sequence. *)

val int64 : t -> int64
(** [int64 r] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int r n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)

val float : t -> float -> float
(** [float r x] is uniform in [\[0, x)]. *)

val uniform : t -> float -> float -> float
(** [uniform r a b] is uniform in [\[a, b)].
    @raise Invalid_argument if [b < a]. *)

val uniform_int : t -> int -> int -> int
(** [uniform_int r a b] is uniform in the inclusive range [\[a, b\]].
    @raise Invalid_argument if [b < a]. *)

val bool : t -> float -> bool
(** [bool r p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** [exponential r ~mean] draws from the exponential distribution with the
    given mean. @raise Invalid_argument if [mean <= 0.]. *)

val uniform_span : t -> Sim_time.span -> Sim_time.span -> Sim_time.span
(** [uniform_span r a b] is a duration uniform between [a] and [b]
    inclusive. *)

val exponential_span : t -> mean:Sim_time.span -> Sim_time.span
(** [exponential_span r ~mean] is an exponentially distributed duration with
    the given mean, rounded to the microsecond. *)

val pick : t -> 'a array -> 'a
(** [pick r a] is a uniformly chosen element of [a].
    @raise Invalid_argument if [a] is empty. *)

val shuffle : t -> 'a array -> unit
(** [shuffle r a] permutes [a] in place, uniformly at random. *)
