(** Priority queue of timestamped events.

    Events pop in [(time, sequence)] order, where the sequence number is
    the insertion count: events at equal instants pop in insertion order,
    which keeps simulations deterministic. The order depends on the keys
    alone, never on how the queue stores them.

    Two stores share that order. A binary min-heap sifts keys only: times,
    sequence numbers and a heap-position → slot index live in unboxed
    [int] arrays, while payloads sit still in a slot table, so sifting
    never runs the GC write barrier and comparisons never chase a pointer.
    Next to it, up to eight FIFO ring buffers ("lanes") take the events
    added through {!add_delayed} with a recurring delay: such events arrive
    already sorted, so a lane appends in O(1) and stands in the heap as one
    entry keyed by its head, which sifts down once when the head pops. A
    delay gets a lane on its second sighting, only an empty lane is handed
    to another delay, and an event earlier than its lane's tail goes to the
    heap. [add] and [pop_value] allocate nothing in the steady state, and a
    popped event's cell is reset, so its value is unreachable as soon as it
    is returned. *)

type 'a t
(** A queue of events carrying values of type ['a]. *)

val create : unit -> 'a t
(** A fresh empty queue. *)

val length : 'a t -> int
(** Number of queued events. *)

val is_empty : 'a t -> bool

val add : 'a t -> time:Sim_time.t -> 'a -> unit
(** [add q ~time v] enqueues [v] to fire at [time], in the heap. *)

val add_delayed : 'a t -> time:Sim_time.t -> delay:Sim_time.span -> 'a -> unit
(** [add_delayed q ~time ~delay v] is [add q ~time v] for an event the
    caller scheduled [delay] after its own clock. The delay only picks the
    store: an event whose delay owns a lane is appended to it, so callers
    that schedule many events with a few fixed delays skip most heap
    sifts. The pop order is the same as with [add]. *)

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
    slot holds the dummy (the space-leak guard); whether every non-empty
    lane is sorted and has exactly one heap entry, keyed by its head,
    every empty lane has none, every vacated ring cell holds the dummy and
    no delay owns two lanes; whether the heap arrays have room for every
    slot plus one head per lane; and whether {!length} equals the heap's
    singles plus the lanes' entries. Always [true] unless the
    implementation is broken — the fuzz tests call it after every
    operation. *)
