(** Log-bucketed integer histogram with exact quantile bounds.

    Designed for simulated-time durations in microseconds. Buckets are
    exact below 16; above that each power-of-two octave is split into 16
    sub-buckets, bounding the relative width of any bucket — and hence
    of any quantile bracket — by 1/16. Merging is a
    bucket-wise sum: exact, associative and commutative, so per-domain
    histograms can be folded in any grouping with identical results. *)

type t

val create : unit -> t

(** [add t v] records the non-negative sample [v].
    @raise Invalid_argument if [v < 0]. *)
val add : t -> int -> unit

val count : t -> int
val sum : t -> int

(** 0 when the histogram is empty. *)
val min_value : t -> int

(** 0 when the histogram is empty. *)
val max_value : t -> int

(** 0. when the histogram is empty. *)
val mean : t -> float

(** [quantile_bounds t q] returns an inclusive [(lo, hi)] bracket that is
    guaranteed to contain the true [q]-quantile of the recorded samples
    (rank [max 1 (ceil (q * count))] of the sorted multiset), with
    [hi - lo] bounded by one bucket's width: [hi - lo <= lo / 16] (exact
    buckets below 16).
    @raise Invalid_argument if the histogram is empty or [q] is outside
    [\[0, 1\]]. *)
val quantile_bounds : t -> float -> int * int

(** [merge_into ~into src] adds every bucket of [src] into [into].
    [src] is unchanged. *)
val merge_into : into:t -> t -> unit

(** Fresh histogram holding the bucket-wise sum of both arguments. *)
val merge : t -> t -> t

(** Non-empty buckets as [(lo, hi, count)] triples, in increasing value
    order; [lo]/[hi] are the inclusive value bounds of the bucket. *)
val buckets : t -> (int * int * int) list

(** Structural equality of the recorded distributions. *)
val equal : t -> t -> bool
