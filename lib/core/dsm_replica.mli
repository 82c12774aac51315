(** The database state machine replication technique (paper §2.1, Figs. 2
    and 8), parameterised by safety level.

    Update-everywhere, non-voting, single network interaction: the delegate
    executes the transaction's reads locally, then atomically broadcasts
    the writeset (with its certification snapshot); every server certifies
    delivered writesets deterministically in delivery order and applies the
    committed ones, so no voting phase is needed. Writesets are processed
    by an in-order pipeline per server — total order forces sequential
    application, which is what eventually queues under load.

    The three modes differ only in the instant the delegate answers the
    client, and in the broadcast primitive underneath:

    - {b Group-safe} (Fig. 8): answer at the certification decision;
      logging and the write-back of pages happen asynchronously, with the
      write-scheduling gain asynchrony buys (paper §5.1). Classical atomic
      broadcast; recovery by state transfer.
    - {b Group-1-safe} (Fig. 2): answer once the delegate has applied the
      writes and flushed the decision record. Classical atomic broadcast.
    - {b 2-safe} (§4.3): end-to-end atomic broadcast; every server
      acknowledges successful delivery after logging, and the delegate
      answers once every available server has logged the transaction. *)

type mode = Group_safe_mode | Group_one_safe_mode | Two_safe_mode | Very_safe_mode

val mode_level : mode -> Safety.level

type t

val create :
  Server.t ->
  group:Net.Node_id.t list ->
  mode:mode ->
  ?fd_config:Gcs.Failure_detector.config ->
  ?apply_write_factor:float ->
  ?uniform:bool ->
  ?tuning:Gcs.Bcast_tuning.t ->
  ?delivery_delay:(unit -> Sim.Sim_time.span) ->
  registry:Obs.Registry.t ->
  tracer:Obs.Tracer.t ->
  trace:Sim.Trace.t ->
  unit ->
  t
(** [create server ~group ~mode ~registry ~tracer ~trace ()] attaches the
    replica to [server]. [apply_write_factor] scales the disk service time
    of ordered writeset application (default 0.625: ordered write-back
    still coalesces some adjacent pages); the group-safe mode's background
    flushes use the database engine's own asynchronous factor. [uniform]
    (classical modes only, default [true]) selects uniform delivery in the
    ordering protocol; [false] is the ablation that invalidates
    group-safety.
    [delivery_delay], when given, installs a deterministic
    {!Gcs.Delivery_delay} gate between the broadcast's decide point and
    this replica's processing pipeline — the schedule explorer's message
    delay knob; absent, delivery is immediate as in production.

    [registry] collects this replica's lifecycle histograms
    ([phase.read_us], [phase.broadcast_us], [phase.certify_us],
    [phase.wal_us]), the Fig.-9 ack-path counters ([txn.ack_before_disk]
    vs [txn.ack_after_disk]) and the broadcast stack's [abcast.*]/
    [e2e.*]/[log.*] counters. [tracer], when enabled, additionally records
    each phase as a Chrome-trace span on this server's track. *)

val submit : t -> Db.Transaction.t -> on_response:(Db.Testable_tx.outcome -> unit) -> unit
(** Run the transaction with this server as delegate. [on_response] fires
    at the mode's answer instant; it never fires if the delegate crashes
    first, and submissions to a recovering server are dropped. Read-only
    transactions answer after the local read phase, without broadcast. *)

val replica : t -> Replica.t
(** The per-server half: serving state, committed view, step recorders. *)

val set_mode : t -> mode -> unit
(** Switch the response rule at runtime — the paper notes group-1-safe and
    group-safe can be swapped on the fly (§5.2). Effective for writesets
    processed from now on; a relaxation may immediately release waiting
    responses. @raise Invalid_argument when the new mode needs the other
    broadcast primitive: the group-safe pair runs on classical atomic
    broadcast, the 2-safe pair on end-to-end atomic broadcast. *)

val certifier : t -> Db.Certifier.t
val is_leading : t -> bool
(** Whether this replica's broadcast stack currently leads the ordering
    protocol — progress evidence for the liveness oracle. *)

val break_no_accept_retransmit : t -> unit
(** Oracle-mutation hook: disable in-flight Accept retransmission in this
    replica's ordering log, reintroducing the PR 2 wedged-slot bug for the
    liveness storms to rediscover. Test-only. *)
