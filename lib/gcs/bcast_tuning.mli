(** Broadcast-engine tuning knobs, shared by {!Replicated_log} and both
    atomic-broadcast primitives.

    The defaults reproduce the seed engine exactly — one value per Paxos
    instance, an unbounded in-flight window, full-group dissemination —
    so a system built without an explicit tuning behaves (and schedules
    events) byte-for-byte as before. The knobs exist to chart the
    engine's throughput ceiling (docs/PERFORMANCE.md):

    - [batch]: a leader packs up to this many pending submissions into
      one consensus instance, and flushes a partial batch 1 ms of sim time
      after its first value. Delivery is unbatched in submission order,
      so the layers above always see the same per-transaction stream.
    - [window]: maximum consensus instances in flight at once
      (pipelining). Further batches queue at the leader until a slot
      completes.
    - [dissemination]: [Broadcast] is classic multi-Paxos (leader
      broadcasts Accepts, collects Accept_oks); [Ring] circulates the
      value around the failure-detector-trusted ring, each hop stacking
      its acknowledgement, Ring-Paxos style — the coordinator pays O(1)
      network CPU per instance instead of O(group). *)

type dissemination = Broadcast | Ring

type t = {
  batch : int;  (** max values per consensus instance (>= 1). *)
  window : int;  (** max in-flight instances (>= 1). *)
  dissemination : dissemination;
}

val default : t
(** [{ batch = 1; window = max_int; dissemination = Broadcast }] — the
    seed engine, event for event. *)

val batched : ?batch:int -> ?window:int -> unit -> t
(** Batching + pipelining preset (default 32/32), broadcast dissemination. *)

val ring : ?batch:int -> ?window:int -> unit -> t
(** Ring dissemination preset (default batch 1, window 32). *)

val to_string : t -> string
(** ["seed"] for {!default}, otherwise ["<dissemination> b=<batch> w=<window>"]. *)

val pp : Format.formatter -> t -> unit
