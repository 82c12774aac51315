(** Simulated time.

    The simulation clock counts integer microseconds since the start of the
    run. Using integers keeps event ordering exact and runs reproducible
    across platforms; all public constructors round to the microsecond. *)

type t = private int
(** An absolute instant, in microseconds since simulation start. *)

type span = private int
(** A duration, in microseconds. Spans are always non-negative. *)

val zero : t
(** The simulation start instant. *)

val of_us : int -> t
(** [of_us n] is the instant [n] microseconds after start.
    @raise Invalid_argument if [n < 0]. *)

val to_us : t -> int
(** [to_us t] is [t] expressed in microseconds. *)

val span_us : int -> span
(** [span_us n] is a duration of [n] microseconds.
    @raise Invalid_argument if [n < 0]. *)

val span_ms : float -> span
(** [span_ms x] is a duration of [x] milliseconds, rounded to the
    microsecond. @raise Invalid_argument if [x < 0.]. *)

val span_s : float -> span
(** [span_s x] is a duration of [x] seconds, rounded to the microsecond.
    @raise Invalid_argument if [x < 0.]. *)

val span_to_us : span -> int
(** [span_to_us d] is [d] expressed in microseconds. *)

val span_to_ms : span -> float
(** [span_to_ms d] is [d] expressed in milliseconds. *)

val add : t -> span -> t
(** [add t d] is the instant [d] after [t]. *)

val diff : t -> t -> span
(** [diff a b] is the duration from [b] to [a].
    @raise Invalid_argument if [a] is earlier than [b]. *)

val span_add : span -> span -> span
(** [span_add a b] is the total duration [a + b]. *)

val span_zero : span
(** The empty duration. *)

val compare : t -> t -> int
(** Total order on instants. *)

val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val equal : t -> t -> bool

val max : t -> t -> t
val min : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints an instant as milliseconds, e.g. ["12.345ms"]. *)

val pp_span : Format.formatter -> span -> unit
(** Prints a duration as milliseconds. *)
