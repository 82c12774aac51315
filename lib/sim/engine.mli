(** Discrete-event simulation engine.

    An engine owns the virtual clock, the pending-event queue and the root
    random generator of one simulation run. Components schedule closures at
    future instants; [run] executes them in timestamp order, advancing the
    clock. Everything is single-threaded and deterministic for a given
    seed.

    An event is the bare closure it runs: there is no handle and no
    cancellation. A component whose pending work can go stale (a timer
    outlived by a crash, a superseded retry) checks a guard when the
    event fires instead — {!Process.guard}'s incarnation, or its own
    generation counter. *)

type t
(** One simulation run. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] is a fresh engine at time {!Sim_time.zero}.
    [seed] defaults to [1L]. *)

val now : t -> Sim_time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root generator. Components should {!Rng.split} it at setup
    time rather than share it, so that adding a component does not perturb
    the draws of the others. *)

val schedule : t -> delay:Sim_time.span -> (unit -> unit) -> unit
(** [schedule e ~delay f] runs [f] at [now e + delay]. Events scheduled at
    the same instant run in scheduling order. *)

val schedule_at : t -> time:Sim_time.t -> (unit -> unit) -> unit
(** [schedule_at e ~time f] runs [f] at [time].
    @raise Invalid_argument if [time] is in the past. *)

val pending : t -> int
(** Number of events still queued. *)

val run : ?until:Sim_time.t -> t -> unit
(** [run ?until e] executes events in order. With [until], stops once the
    clock would pass it (the clock then reads [until]); without, runs to
    queue exhaustion. *)

val step : t -> bool
(** [step e] executes the single earliest event. [false] if none remained. *)

val events_executed : t -> int
(** Total number of events executed so far. *)

val global_executed : unit -> int
(** Events executed across {e every} engine in the process (all domains
    included), counted at the end of each [run]. Sections of a long
    experiment read the counter before and after to report simulated
    events per wall-clock second. *)
