(** Replayable fault schedules for the explorer.

    A schedule is a pure value: a server count, a fixed transaction load
    (write-only, disjoint items, one submission every [spacing]), and a
    sorted list of timed fault events. Replaying the same schedule against
    the same {!Explorer.config} always produces the same execution — the
    schedule, the configuration and the system seed are the whole input.
    That is what makes counterexamples shrinkable and reproducible. *)

type event_kind =
  | Crash of int  (** kill server [i]. *)
  | Recover of int  (** restart server [i] (no-op if it is up). *)
  | Delay of int * Sim.Sim_time.span
      (** from this instant, hold every broadcast delivery on server [i]
          back by the given duration (order preserved; see
          {!Gcs.Delivery_delay}). A later [Delay] event replaces the
          hold. No-op for techniques without a delivery gate. *)
  | Partition of int list list
      (** split the network into the given groups of server indices;
          servers listed in no group form an implicit extra group.
          Canonicalised by {!make}: groups sorted, deduplicated, empty
          groups removed. A later [Partition] replaces the cut. *)
  | Heal
      (** restore full connectivity (clears partitions and blocked links;
          see {!Net.Network.heal}). *)
  | Drop_window of { prob : float; until : Sim.Sim_time.span }
      (** from this instant until offset [until], every message is lost
          independently with probability [prob] (overrides the configured
          drop probability; see {!Net.Network.set_drop}). [make] clamps
          [prob] to [0, 1] and [until] to at least the event time. *)
  | Duplicate_next of int
      (** deliver the next message transmitted to server [i] twice —
          exactly-once delivery must deduplicate it. *)
  | Torn_write of int
      (** arm a torn write on server [i]: its next crash cuts the newest
          durable WAL record mid-frame (recovery must truncate it). *)
  | Fsync_lie of int
      (** arm a lying fsync on server [i]: from now until its next crash,
          WAL flushes are acknowledged but not persisted — that crash
          silently drops the records. *)
  | Corrupt_record of int
      (** flip a byte of the newest durable WAL record on server [i]
          (bit-rot; recovery must detect and drop the record). *)
  | Slow_disk of { server : int; factor : float; until : Sim.Sim_time.span }
      (** gray failure: server [server]'s WAL flushes take [factor] times
          their nominal duration until offset [until]. [make] clamps
          [factor] to at least 1 and [until] to at least the event time. *)
  | Disk_full of { server : int; until : Sim.Sim_time.span }
      (** device full: server [server]'s WAL appends park (volatile) and
          the replica refuses new update transactions until offset
          [until]. *)

type event = { at : Sim.Sim_time.span; kind : event_kind }
(** [at] is an offset from the start of the run ([t = 0]). *)

type t = {
  servers : int;
  txs : int;  (** write-only transactions, submitted at [i * spacing]. *)
  spacing : Sim.Sim_time.span;
  events : event list;  (** sorted; see {!make}. *)
}

val make : servers:int -> txs:int -> spacing:Sim.Sim_time.span -> event list -> t
(** Builds a schedule, sorting the events into the canonical order (by
    time, then kind, then kind-specific payload) so that structurally
    equal schedules compare equal and replay identically. Events that
    name a server outside [0 .. servers-1] are dropped; partitions are
    restricted to in-range servers (and dropped if nothing remains);
    drop-window probabilities are clamped to [0, 1]. *)

val event_count : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool

val shrink : t -> t list
(** Shrink candidates, most aggressive first: drop each
    partition-and-following-heal pair as one unit, drop each armed
    storage fault together with the crash that fires it (pair-aware —
    either alone is rarely smaller), drop each event in turn, reduce the
    transaction count, remove a server (dropping its events), halve every
    event time, shorten every drop / slow-disk / disk-full window towards
    its opening instant, and halve every delivery delay. The explorer
    greedily re-runs candidates and keeps the first that still fails, so
    the order here biases towards structurally smaller counterexamples. *)

val fairness_violation : horizon:Sim.Sim_time.span -> t -> string option
(** [fairness_violation ~horizon t] is [None] when the schedule is {e
    fair}: every crash is followed by a recovery of the same server, every
    partition by a heal, every drop / slow-disk / disk-full window closes
    by [horizon], no delivery delay exceeds [horizon], and no event fires
    after [horizon]
    (a repair scheduled past the horizon never happens). Liveness is only
    falsifiable on fair schedules — an unfair schedule can wedge any
    correct protocol — so the explorer's liveness mode rejects unfair
    candidates and refuses shrink steps that would break fairness.
    Returns the first violation, in execution order, as a human-readable
    reason for the storm report. *)

val fair : horizon:Sim.Sim_time.span -> t -> bool

val serialize : t -> string
(** Machine-readable one-line-per-fact form (integer microseconds, and
    each float as the shortest decimal that reads back as the same float,
    so values round-trip exactly) for the checked-in
    counterexample corpus. Lines starting with ['#'] are comments;
    {!parse} skips them, and the corpus runners read replay directives
    from them ({!directives}). *)

val parse : string -> (t, string) result
(** Inverse of {!serialize}, canonicalising through {!make}. *)

val directives : string -> (string * string) list
(** The replay directives of a corpus file: every [# key=value] comment
    line as [(key, value)], trimmed, in file order. A comment line whose
    key is empty or contains a space is prose, not a directive. *)

val pp : Format.formatter -> t -> unit
val render : t -> string
