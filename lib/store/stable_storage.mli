(** Durable append-only logs on simulated disks.

    A log survives process crashes: records become durable when the disk
    write that carries them completes, and only then. Appends are group
    committed — records arriving while a flush is in flight ride the next
    flush together — which is the batching optimisation the paper's
    group-safe mode exploits. The owning node must call {!crash} from its
    kill hook so that in-flight and pending records are discarded. *)

type 'a t
(** A durable log of records of type ['a]. *)

type config = {
  group_commit : bool;
      (** when [false], every record gets a dedicated flush (ablation). *)
}

val default_config : config
(** Group commit enabled. *)

val create :
  Sim.Engine.t ->
  name:string ->
  disk:Sim.Resource.t ->
  write_time:(unit -> Sim.Sim_time.span) ->
  ?config:config ->
  unit ->
  'a t
(** [create e ~name ~disk ~write_time ()] is an empty log whose flushes
    occupy [disk] for [write_time ()] each. *)

val append : 'a t -> 'a -> on_durable:(unit -> unit) -> unit
(** [append log r ~on_durable] schedules [r] for the next flush and calls
    [on_durable] once it is on disk. The callback is dropped (never called)
    if the node crashes first; guard it with the owner's process if it
    touches volatile state. *)

val append_quiet : 'a t -> 'a -> unit
(** [append_quiet log r] is {!append} with no completion callback: fire and
    forget, e.g. asynchronous background logging. *)

val durable_records : 'a t -> 'a list
(** Records on disk, oldest first. Survives crashes. This is an instant
    inspection used by recovery code and checkers; the simulated cost of a
    recovery read is charged separately by callers. *)

val durable_count : 'a t -> int

val crash : 'a t -> unit
(** Drops pending records and the in-flight flush (their callbacks never
    fire). Durable records are untouched. *)

val flush_count : 'a t -> int
(** Number of disk flushes performed, for measuring batching. *)

val truncate : 'a t -> keep:('a -> bool) -> unit
(** [truncate log ~keep] instantly discards durable records not satisfying
    [keep] (log compaction after a checkpoint). *)

(** {1 Storage-fault hooks}

    Deterministic fault injection for the storage nemesis (see
    [docs/CHECKING.md]). None of these perturb a healthy log: with no fault
    armed the behaviour is byte-identical to the unfaulted implementation. *)

val set_write_factor : 'a t -> float -> unit
(** [set_write_factor log f] makes every subsequent flush take [f] times its
    nominal duration (gray failure / slow disk). Clamped to at least 1.0;
    pass 1.0 to restore a healthy disk. *)

val arm_fsync_lie : 'a t -> unit
(** Arms the lying-fsync fault: from now until the next {!crash}, completed
    flushes report success — durability callbacks fire and the records
    appear in {!durable_records} — but the records were never actually
    persisted and the next {!crash} silently drops them. Disarmed by that
    crash. *)

val fsync_lying : 'a t -> bool

val lies_acked : 'a t -> int
(** Records acknowledged as durable by a lying fsync (cumulative). *)

val lies_dropped : 'a t -> int
(** Lied-about records silently dropped by crashes (cumulative). *)

val set_full : 'a t -> bool -> unit
(** [set_full log true] makes the device reject new writes: appends park in
    an internal queue (volatile — a crash drops them) instead of flushing.
    [set_full log false] releases parked appends in order. *)

val is_full : 'a t -> bool

val parked_count : 'a t -> int
(** Appends parked behind a full disk right now. *)

val tamper_last : 'a t -> ('a -> 'a) -> bool
(** [tamper_last log f] destructively rewrites the newest genuinely durable
    record in place (bit-rot / torn tail). [false] iff there is none. Lied
    records are never targeted — they are already volatile. *)

val last_durable : 'a t -> 'a option
(** The newest genuinely durable record — the one {!tamper_last} would
    rewrite — if any. *)
