(** Priority queue of timestamped events.

    A binary min-heap keyed by [(time, sequence)]: events at equal instants
    pop in insertion order, which keeps simulations deterministic.

    The heap sifts keys only: times, sequence numbers and a heap-position
    → slot index live in unboxed [int] arrays, while payloads sit still in
    a slot table behind a free-slot stack. A payload is written once by
    [add] and cleared once by [pop_value], so sifting never runs the GC
    write barrier, [add] and [pop_value] allocate nothing in the steady
    state, and comparisons never chase a pointer. Popped (and cleared)
    slots are reset, so a consumed event's value is unreachable as soon as
    it is returned. *)

type 'a t
(** A queue of events carrying values of type ['a]. *)

val create : unit -> 'a t
(** A fresh empty queue. *)

val length : 'a t -> int
(** Number of queued events. *)

val is_empty : 'a t -> bool

val add : 'a t -> time:Sim_time.t -> 'a -> unit
(** [add q ~time v] enqueues [v] to fire at [time]. *)

val peek_time : 'a t -> Sim_time.t option
(** [peek_time q] is the instant of the earliest event, if any. *)

val next_time_us : 'a t -> int
(** O(1), allocation-free peek: the earliest event's time in microseconds,
    or [max_int] when the queue is empty. The engine's hot loop compares
    this against its limit before committing to a pop. *)

val pop : 'a t -> (Sim_time.t * 'a) option
(** [pop q] removes and returns the earliest event: at equal instants the
    one enqueued first. *)

val pop_value : 'a t -> 'a
(** Allocation-free [pop] for callers that already read the event's time
    via {!next_time_us}: removes the earliest event and returns just its
    value. @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit
(** Removes every event and drops every reference the queue held. *)

val heap_ok : 'a t -> bool
(** Test hook: whether the internal [(time, sequence)] min-heap property
    holds, every live slot is referenced by exactly one heap position,
    every other slot is on the free stack exactly once, and every free
    slot holds the dummy (the space-leak guard). Always [true] unless the
    implementation is broken — the fuzz tests call it after every
    operation. *)
