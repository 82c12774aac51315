(** Lazy update-everywhere replication — the 1-safe baseline of the paper's
    evaluation (§6), plus its 0-safe degeneration.

    The delegate executes the whole transaction locally under strict
    two-phase locking (reads and writes both charge disk time), flushes the
    decision record, answers the client, and only then propagates the
    writeset to the other servers, which apply it on arrival with no
    ordering and no certification: concurrent updates at different sites
    can leave the copies inconsistent even without failures (§7).

    - {b 1-safe}: the answer follows the local log flush.
    - {b 0-safe}: the answer precedes any disk write — execution happens in
      memory, write-back and logging are asynchronous. *)

type mode = One_safe_mode | Zero_safe_mode

val mode_level : mode -> Safety.level

type t

val create :
  Server.t ->
  group:Net.Node_id.t list ->
  mode:mode ->
  registry:Obs.Registry.t ->
  tracer:Obs.Tracer.t ->
  trace:Sim.Trace.t ->
  t
(** [registry] collects the ack-path counters ([txn.ack_before_disk] for
    0-safe, [txn.ack_after_disk] for 1-safe) plus [lazy.propagations],
    [lazy.remote_applies] and the lifecycle histograms [phase.execute_us],
    [phase.flush_us] and [lazy.propagation_us] (origin commit to remote
    apply). [tracer], when enabled, additionally records each phase as a
    Chrome-trace span on this server's track. *)

val submit : t -> Db.Transaction.t -> on_response:(Db.Testable_tx.outcome -> unit) -> unit
(** Execute with this server as delegate. Local deadlocks abort the
    transaction (the response is [Aborted]); lazy propagation has no
    global conflict handling, so remote applies never abort. *)

val replica : t -> Replica.t
(** The per-server half: serving state, committed view, step recorders. A
    restart rebuilds the view from the server's own log (lazy replication
    has no group to transfer state from; missed propagations stay
    missing). *)

val cross_site_conflicts : t -> int
(** Remote writesets that conflicted with a concurrent local update of the
    same item — the §7 inconsistency hazard, counted as it happens. *)
