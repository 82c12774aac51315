(** A whole replicated database: engine, network, servers, replicas.

    One [System.t] is one simulated deployment running one replication
    technique. It owns the virtual clock, offers submission and fault
    injection, and records everything the safety checker and the metrics
    need. Deterministic for a given seed. *)

type technique =
  | Dsm of Dsm_replica.mode  (** the database state machine technique. *)
  | Lazy of Lazy_replica.mode  (** lazy update-everywhere propagation. *)
  | Two_pc
      (** traditional eager replication over two-phase commit — the
          baseline the paper's introduction argues against. *)

val technique_name : technique -> string

val all_techniques : technique list
(** Every implemented technique, weakest safety first. *)

val technique_of_level : Safety.level -> technique
(** The canonical technique advertising each safety level — the uniform
    factory the schedule explorer and the table experiments build systems
    from: lazy replication for the 0/1-safe levels, the DSM stack for the
    group levels, 2-safe and very-safe. (2PC also advertises 2-safe; ask
    for it explicitly with {!Two_pc}.) *)

type t

val create :
  ?seed:int64 ->
  ?params:Workload.Params.t ->
  ?fd_config:Gcs.Failure_detector.config ->
  ?apply_write_factor:float ->
  ?uniform:bool ->
  ?tuning:Gcs.Bcast_tuning.t ->
  ?trace_enabled:bool ->
  ?obs_trace:bool ->
  ?delivery_delay:(int -> (unit -> Sim.Sim_time.span) option) ->
  technique ->
  t
(** [create technique] builds the full system: [params.servers] servers on
    a LAN per the parameters, each running the technique's replica stack.
    [trace_enabled] (default [true]) can be switched off for long
    performance runs. [obs_trace] (default [false]) arms the observability
    tracer: every transaction and per-phase span is then captured for
    Chrome-trace export (see {!obs_tracer}). [uniform] (default [true])
    keeps uniform delivery in the ordering protocol; [false] is the
    DESIGN.md ablation. [tuning] selects the broadcast-engine tuning
    (batching, pipelining window, dissemination backend — see
    {!Gcs.Bcast_tuning}) for the DSM techniques' ordering layer; default
    is the seed engine. [delivery_delay], given a server index, may return
    a deterministic extra-delay thunk installed as that server's broadcast
    delivery gate (see {!Gcs.Delivery_delay}); like [tuning], it only
    affects the DSM techniques — lazy propagation and 2PC have no ordering
    layer to gate. *)

val partition : t -> int list list -> unit
(** Install a network partition between server groups (by index); servers
    left out form an implicit last group. Traced as ["partition"]. *)

val heal : t -> unit
(** Restore full connectivity (removes partitions and blocked links; see
    {!Net.Network.heal}). Traced as ["heal"]. *)

val set_drop : t -> float option -> unit
(** Open ([Some p]) or close ([None]) a message-loss window: while open,
    every message is dropped independently with probability [p],
    overriding the configured drop probability. Traced as
    ["drop_window"]. *)

val duplicate_next : t -> int -> unit
(** Mark server [i] so the next message transmitted to it is delivered
    twice — the dedup layers (testable transactions, broadcast UID
    tables) must absorb the duplicate. Traced as ["duplicate_next"]. *)

val engine : t -> Sim.Engine.t
val network : t -> Net.Network.t
val params : t -> Workload.Params.t
val trace : t -> Sim.Trace.t
val metrics : t -> Workload.Metrics.t
val technique : t -> technique
val level : t -> Safety.level
val n_servers : t -> int

val obs_registry : t -> Obs.Registry.t
(** The system-wide metrics registry. All replicas share it: protocol
    counters ([abcast.*], [log.*], [e2e.*], [lazy.*], [2pc.*]), the
    ack-path discriminators ([txn.ack_before_disk] / [txn.ack_after_disk])
    and per-phase latency histograms ([phase.*]) aggregate here, next to
    the system-level [txn.submitted]/[txn.committed]/[txn.aborted] counters
    and [txn.commit_us]/[txn.abort_us] histograms. *)

val obs_tracer : t -> Obs.Tracer.t
(** The span tracer (enabled iff [create ~obs_trace:true]). Feed its
    events to {!Obs.Chrome_trace} for a chrome://tracing / Perfetto
    timeline. *)

val attach_obs_samplers : ?every:Sim.Sim_time.span -> t -> unit
(** Sample every server's CPU and disk queue depth and utilisation into
    the registry ([res.cpu.*], [res.disk.*]) every [every] (default
    100 ms) of virtual time. Samplers reschedule themselves forever, so
    only attach before bounded [run_for] advances. Sampling reads resource
    state without consuming randomness or mutating anything: simulation
    results are byte-identical with or without it. *)

val submit :
  t -> ?on_response:(Db.Testable_tx.outcome -> unit) -> delegate:int -> Db.Transaction.t -> unit
(** Submit with server [delegate]. The response (if any arrives) is
    recorded in the metrics and in the acknowledgement table; the optional
    callback fires too. Submissions to a dead or recovering delegate are
    dropped silently (the client would time out). Metrics and the
    acknowledgement table count each transaction id once, so client
    retries do not double-count. *)

val server_id : t -> int -> Net.Node_id.t
(** The network identity of server [i] — servers also answer
    {!Client} requests sent to this id. *)

val run_for : t -> Sim.Sim_time.span -> unit
(** Advance the simulation by the given amount of virtual time. *)

val now : t -> Sim.Sim_time.t

val crash : t -> int -> unit
(** Crash server [i] (traced; idempotent). *)

val recover : t -> int -> unit
(** Restart server [i] (traced; idempotent). *)

val alive : t -> int -> bool
val serving : t -> int -> bool

val submitted : t -> int
(** Transactions submitted so far. *)

type ack = {
  tx : Db.Transaction.id;
  outcome : Db.Testable_tx.outcome;
  at : Sim.Sim_time.t;  (** when the client heard the outcome. *)
  update : bool;
      (** whether the transaction wrote anything. A read-only commit
          leaves no durable effect, so there is nothing of it to lose. *)
}

val acked : t -> ack list
(** Every response ever given to a client (the god's-eye record the safety
    checker starts from), in response order. *)

type submission = {
  sub_tx : Db.Transaction.id;
  sub_at : Sim.Sim_time.t;  (** when the client submitted. *)
  sub_delegate : int;
  sub_delegate_serving : bool;
      (** whether the delegate was serving at submission time: a
          submission to a dead or recovering server is dropped silently
          (the client would time out), so no decision is owed for it. *)
}

val submissions : t -> submission list
(** Every distinct transaction id ever submitted (first submission wins;
    client retries do not duplicate), in submission order — the other half
    of the liveness oracle's books: [submissions] owed, {!acked} paid. *)

val submission_of : t -> Db.Transaction.id -> submission option
(** The first submission of this transaction id (the entry {!submissions}
    lists for it), or [None] if the id was never submitted. O(1). *)

val acked_id : t -> Db.Transaction.id -> bool
(** Whether a response for this transaction id was ever given. *)

val has_ordering_layer : t -> bool
(** Whether the technique runs an ordering (broadcast) protocol whose
    leadership the liveness oracle can observe — true for the DSM stack,
    false for lazy propagation and 2PC. *)

val leaders : t -> int list
(** Indices of serving replicas whose ordering log currently holds an
    established leadership (empty for techniques without an ordering
    layer). After quiescence on a healed majority there must be at least
    one — the takeover evidence the liveness oracle checks. *)

val committed_on : t -> server:int -> Db.Transaction.id -> bool
(** Whether server [server]'s current replica view has the transaction
    committed. *)

val values_of : t -> server:int -> int array
(** Server [server]'s current in-memory database contents. *)

val history : t -> int -> Gcs.Process_class.history
(** Server [i]'s crash/recovery history up to now. *)

val group_failed : t -> bool
(** Whether at any point so far a majority of servers was down
    simultaneously (the group-failure condition of Tables 2 and 3). *)

val dsm_replica : t -> int -> Dsm_replica.t option
val lazy_replica : t -> int -> Lazy_replica.t option
val twopc_replica : t -> int -> Twopc_replica.t option

val inject_storage_fault : t -> int -> Db.Db_engine.fault -> unit
(** Arm (or perform) a storage fault on server [i]'s WAL — the single
    fault surface behind the storage nemesis ({!Check.Schedule} events
    [Torn_write], [Fsync_lie], [Corrupt_record]) and the legacy wipe
    hooks. Traced as ["torn_write"], ["fsync_lie"], ["corrupt_record"],
    ["wal_wipe"] or ["amnesia"]. See {!Db.Db_engine.fault}. *)

val break_amnesiac : t -> int -> unit
(** Deliberately break server [i]: from now on, every crash also wipes its
    durable write-ahead log, so the server recovers remembering nothing it
    ever logged. No real technique behaves like this — the hook exists to
    mutation-test the safety oracle itself (a checker that cannot catch an
    amnesiac 2-safe replica losing an acknowledged transaction is not
    checking anything). Thin alias for
    [inject_storage_fault t i Wipe_wal_at_crash]; traced as ["amnesia"]. *)

val set_disk_slow : t -> int -> float -> unit
(** Gray failure on server [i]: scale its WAL flush durations by the
    factor (1.0 heals). Traced as ["slow_disk"]. *)

val set_disk_full : t -> int -> bool -> unit
(** Disk-full window on server [i]: while set, its WAL appends park
    (volatile) and the replica refuses new update transactions with a
    distinct abort while continuing to serve reads and group traffic.
    Traced as ["disk_full"]. *)

val break_skip_checksum : t -> int -> unit
(** Oracle-mutation hook: disable WAL checksum verification on server
    [i]'s recovery, modelling an unhardened log that replays rotted bytes.
    The durability oracle must notice the shortfall
    ([corrupt_detected < corrupt_scanned]). Traced as ["skip_checksum"]. *)

val storage_faults : t -> int -> Db.Db_engine.fault_stats
(** Server [i]'s cumulative storage-fault and repair evidence. *)

val last_repair : t -> int -> Db.Db_engine.repair_report option
(** The report of server [i]'s most recent WAL recovery scan. *)

val break_no_accept_retransmit : t -> int -> unit
(** Oracle-mutation hook: disable in-flight Accept retransmission in
    server [i]'s ordering log (no-op for techniques without one),
    reintroducing the PR 2 wedged-slot liveness bug. A liveness oracle
    that cannot catch a leader silently abandoning a dropped Accept is not
    checking anything. Traced as ["no_accept_retransmit"]. *)

val break_early_decision : t -> int -> unit
(** Oracle-mutation hook: make server [i]'s 2PC replica answer decision
    requests from its in-memory view with an empty write set (no-op for
    other techniques), reintroducing the PR 2 early-decision divergence
    bug. Traced as ["early_decision"]. *)

val set_dsm_mode : t -> Dsm_replica.mode -> unit
(** Switch every DSM replica's response rule at runtime (paper §5.2): e.g.
    group-safe under normal operation, group-1-safe while the group looks
    fragile. A no-op on lazy systems.
    @raise Invalid_argument across broadcast families
    (see {!Dsm_replica.set_mode}). *)
