(** Zipf-skewed key sampler.

    [Zipf(s)] over [0, items): the probability of key [k] is proportional
    to [1 / (k+1)^s], so key 0 is the hottest and [s = 0] degenerates to
    uniform. The sampler inverts a precomputed cumulative table (arrays
    only — no hash tables, so the stream cannot depend on insertion
    history) and is deterministic: the same parameters and the same RNG
    stream always yield the same key stream. A guide table of [items]
    entries, the first key whose cumulative mass exceeds [j / items],
    puts each draw within a step or two of its key, and the walk from
    there returns exactly the key a binary search of the table would.
    Used by the sharded keyed workload (docs/SHARDING.md), with one
    sampler per shard over that shard's key range. *)

type t

val create : items:int -> s:float -> t
(** [create ~items ~s] precomputes the cumulative distribution and its
    guide table — O(items) time and space.
    @raise Invalid_argument if [items <= 0] or [s < 0]. *)

val items : t -> int
val s : t -> float

val probability : t -> int -> float
(** The exact probability mass of key [k] — what frequency tests compare
    empirical counts against. @raise Invalid_argument out of range. *)

val quantile : t -> float -> int
(** [quantile t u] is the smallest key whose cumulative mass exceeds [u]:
    the key {!sample} returns when its draw is [u].
    @raise Invalid_argument unless [0 <= u < 1]. *)

val sample : t -> Sim.Rng.t -> int
(** Draw one key: [quantile] of the value [Rng.float rng 1.0] would
    return, built from one {!Sim.Rng.bits53} draw, so a draw allocates
    nothing in any build profile. *)
