(** Online statistics for simulation measurements.

    A [series] accumulates floating-point samples (typically latencies in
    milliseconds) and reports count, mean, variance, extrema and exact
    percentiles (all samples are retained). A [counter] counts events. *)

type series
(** A collection of samples. *)

val series : string -> series
(** [series name] is a fresh empty series; [name] labels it at the call
    site only. *)

val add : series -> float -> unit
(** [add s x] records sample [x]. *)

val count : series -> int
val mean : series -> float
(** Mean of the samples; [nan] when empty. *)

val variance : series -> float
(** Unbiased sample variance; [nan] with fewer than two samples. *)

val min_value : series -> float
(** Smallest sample; [nan] when empty. *)

val max_value : series -> float
(** Largest sample; [nan] when empty. *)

val percentile : series -> float -> float
(** [percentile s p] is the [p]-th percentile ([0. <= p <= 100.]) by linear
    interpolation on the sorted samples; [nan] when empty.
    @raise Invalid_argument if [p] is out of range. *)

val median : series -> float

val confidence95 : series -> float
(** Half-width of the normal-approximation 95% confidence interval of the
    mean; [nan] with fewer than two samples. *)

val samples : series -> float array
(** A copy of the samples in insertion order. *)

val histogram : series -> bins:int -> (float * float * int) list
(** [histogram s ~bins] partitions [min, max] into [bins] equal-width
    buckets and returns [(lo, hi, count)] per bucket, in order. Empty
    series yield []. @raise Invalid_argument if [bins <= 0]. *)

val merge : string -> series list -> series
(** [merge name ss] is a series holding every sample of [ss]. *)

val clear : series -> unit

type counter
(** A monotone event counter. *)

val counter : string -> counter
(** [counter name] is a fresh zero counter; [name] labels it at the call
    site only. *)

val incr : counter -> unit
val incr_by : counter -> int -> unit
val value : counter -> int
val reset : counter -> unit
