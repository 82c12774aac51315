(** Eager update-everywhere replication over two-phase commit — the
    traditional technique the paper's introduction contrasts with
    group-communication replication ("slow and deadlock prone", after Gray
    et al.'s dangers of replication).

    The delegate executes the transaction under local strict 2PL, then
    coordinates a 2PC round: every replica acquires exclusive locks on the
    written items, force-logs a prepare record and votes; on unanimous yes
    the coordinator force-logs the decision, answers the client and
    broadcasts commit. The client answer therefore implies the transaction
    is durably prepared on {e every} server — 2-safe — but:

    - a write conflict between concurrent coordinators at two sites blocks
      lock queues in opposite orders at different participants: a
      {e distributed deadlock}, resolved only by timeouts;
    - one unreachable participant stalls the vote and forces an abort —
      commit availability requires every server;
    - a participant that crashes after voting yes recovers {e in doubt}
      and must ask the coordinator for the decision; while the coordinator
      is down the transaction stays blocked with its locks held (the
      classic 2PC blocking problem). *)

type t

val create :
  Server.t ->
  group:Net.Node_id.t list ->
  registry:Obs.Registry.t ->
  tracer:Obs.Tracer.t ->
  trace:Sim.Trace.t ->
  t
(** [create server ~group ~registry ~tracer ~trace] attaches the replica.
    A participant waits 300 ms for its write locks before voting no; a
    coordinator waits 1 s for the votes before aborting. [registry] collects
    [2pc.prepares_sent], [2pc.votes] and [txn.ack_after_disk], plus the
    internal-phase histograms [2pc.prepare_force_us] (2PC start to
    coordinator prepare record durable), [2pc.vote_gather_us] (votes
    solicited to decision), [2pc.decision_flush_us] (decision to commit
    record durable) and [2pc.participant_prepare_us] (prepare received to
    vote sent). [tracer], when enabled, additionally records each phase as
    a Chrome-trace span on this server's track. *)

val submit : t -> Db.Transaction.t -> on_response:(Db.Testable_tx.outcome -> unit) -> unit
(** Execute with this server as coordinator. The response arrives after
    the full 2PC round: [Committed] on unanimous yes votes, [Aborted] on a
    local deadlock, a no vote, or a vote timeout. *)

val replica : t -> Replica.t
(** The per-server half: serving state, committed view, step recorders. *)

val vote_timeouts : t -> int
(** Coordinator-side aborts caused by missing votes. *)

val in_doubt : t -> int
(** Transactions currently prepared on this replica without a known
    decision (blocked if the coordinator is down). *)

val break_early_decision : t -> unit
(** Oracle-mutation hook: answer decision requests for committed
    transactions from the in-memory view (with an empty write set) instead
    of the durable WAL, reintroducing the PR 2 divergence bug for the
    liveness storms to rediscover. Test-only. *)
