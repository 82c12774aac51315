(** Online statistics for simulation measurements.

    A [series] accumulates floating-point samples (typically latencies in
    milliseconds) and reports count, mean, variance, exact percentiles (all
    samples are retained) and a confidence interval of the mean. *)

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

val percentile : series -> float -> float
(** [percentile s p] is the [p]-th percentile ([0. <= p <= 100.]) by linear
    interpolation on the sorted samples; [nan] when empty.
    @raise Invalid_argument if [p] is out of range. *)

val confidence95 : series -> float
(** Half-width of the normal-approximation 95% confidence interval of the
    mean; [nan] with fewer than two samples. *)

val merge : string -> series list -> series
(** [merge name ss] is a series holding every sample of [ss]. *)
