(** Crash-prone simulated processes.

    A process groups the timers and callbacks belonging to one logical node.
    Killing a process bumps its incarnation number: every callback guarded
    with the old incarnation becomes a no-op, which models the loss of all
    volatile state and in-flight work at a crash. Restarting bumps it again
    and marks the process alive. *)

type t
(** A simulated process. *)

val create : Engine.t -> name:string -> t
(** [create e ~name] is a fresh, alive process on engine [e]. *)

val name : t -> string
val engine : t -> Engine.t

val alive : t -> bool
(** Whether the process is currently up. *)

val incarnation : t -> int
(** Current incarnation number; starts at 0 and grows at each kill and each
    restart. *)

val kill : t -> unit
(** [kill p] crashes [p]: it is no longer alive and all its guarded
    callbacks are disabled. A no-op if already dead. *)

val restart : t -> unit
(** [restart p] brings [p] back up under a new incarnation.
    A no-op if already alive. *)

val guard : t -> (unit -> unit) -> unit -> unit
(** [guard p f] is a callback that runs [f ()] only if [p] is alive and
    still in the incarnation current at guard time. *)

val after : t -> Sim_time.span -> (unit -> unit) -> unit
(** [after p d f] schedules [f], guarded by [p], to run [d] from now: a
    kill or restart in between turns the event into a no-op, which is how
    a crash discards a node's timers. *)

val periodic : t -> every:Sim_time.span -> (unit -> unit) -> unit
(** [periodic p ~every f] runs [f] every [every], starting one period from
    now, for as long as this incarnation of [p] lives. *)

val on_kill : t -> (unit -> unit) -> unit
(** [on_kill p f] registers [f] to run whenever [p] is killed. *)

val on_restart : t -> (unit -> unit) -> unit
(** [on_restart p f] registers [f] to run whenever [p] restarts, after the
    new incarnation is in place. *)
