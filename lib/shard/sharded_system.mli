(** Sharded partial replication: one replica group per key range
    (docs/SHARDING.md).

    A sharded system is [shards] independent {!Groupsafe.System} instances
    — each a full replica group running its own ordering stream over its
    own simulated network — joined by a cross-shard message layer.
    Transactions whose footprint lives on one shard take the {b fast
    path}: they are submitted straight into the owning shard's [System],
    byte-for-byte the unsharded engine. Transactions spanning shards are
    certified with {b two-phase commit layered over the participating
    shards' abcast streams}: phase 1 submits a read-only probe
    sub-transaction on every participant (its certification outcome is the
    vote), phase 2 on a unanimous yes submits blind-write sub-transactions
    (certification accepts blind writes unconditionally); the client is
    acknowledged only after every write sub-transaction acknowledged. Any
    no-vote, vote timeout or refused write leaves the transaction aborted
    or wedged — never half-acknowledged.

    Execution is conservatively time-windowed (see {!Parallel.Windowed}):
    each shard's engine advances one cross-shard link latency per window,
    then envelopes are exchanged at a barrier. Because no envelope is due
    before the next window opens (lookahead = link latency), runs are
    byte-identical at any [jobs], one OCaml domain per shard. *)

type config = {
  shards : int;
  seed : int64;
  params : Workload.Params.t;
      (** per-shard system parameters: [servers] is the replica-group size
          of {e one} shard; [items] is the {e global} key space, cut into
          ranges by {!Shard_map}. *)
  technique : Groupsafe.System.technique;
  tuning : Gcs.Bcast_tuning.t option;
  fd_config : Gcs.Failure_detector.config option;
  trace_enabled : bool;
}

val config :
  ?seed:int64 ->
  ?tuning:Gcs.Bcast_tuning.t ->
  ?fd_config:Gcs.Failure_detector.config ->
  ?trace_enabled:bool ->
  shards:int ->
  params:Workload.Params.t ->
  Groupsafe.System.technique ->
  config
(** Cross-shard links take 2 ms, which is also the window length
    (lookahead), and a 2PC coordinator waits 200 link latencies (400 ms)
    for the votes before aborting. Shard [i]'s engine seed is derived from
    [seed] so that shard 0 runs on [seed] itself — a one-shard system
    reproduces the unsharded engine byte-for-byte.
    @raise Invalid_argument on [shards < 1]. *)

type t

val create : config -> t

(** {1 Topology}

    Global server index [gi] is server [gi mod sps] of shard [gi / sps],
    where [sps] is the replica-group size [params.servers]. *)

val map : t -> Shard_map.t
val sys : t -> int -> Groupsafe.System.t
val engine_of : t -> int -> Sim.Engine.t

(** {1 Load} *)

val submit :
  t -> ?on_response:(Db.Testable_tx.outcome -> unit) -> delegate:int -> Db.Transaction.t -> unit
(** Submit with global server [delegate]. Single-shard transactions go
    down the fast path on the owning shard (a delegate on another shard is
    re-homed to the same local index there); cross-shard transactions are
    2PC-coordinated on the delegate's shard (or the lowest participant if
    the delegate's shard holds none of the keys). Call from the home
    shard's engine context (a scheduled submission on its engine) or
    between runs — never from another shard's domain.
    @raise Invalid_argument on a negative transaction id (reserved for
    sub-transactions) or an out-of-range delegate. *)

val metrics : t -> int -> Workload.Metrics.t
(** Shard [i]'s client-observed metrics: every {e global} transaction
    acknowledged with shard [i] as its home shard (fast path and
    cross-shard alike; sub-transactions are not counted). *)

val set_warmup : t -> Sim.Sim_time.t -> unit
(** Set the warmup boundary of every shard's metrics. *)

(** {1 Execution} *)

val run_for :
  ?jobs:int ->
  ?on_exchange:(window:int -> until:Sim.Sim_time.t -> unit) ->
  t ->
  Sim.Sim_time.span ->
  unit
(** Advance every shard by the given virtual time in lockstep windows of
    one link latency, exchanging cross-shard envelopes at each barrier.
    [jobs] defaults to {!Parallel.Domain_pool.default_jobs}; the result is
    byte-identical at any value. [on_exchange] runs on the coordinating
    domain at every barrier (all shard engines idle), before that window's
    envelopes move — the place to apply timed cross-shard link faults.
    @raise Invalid_argument if the shard clocks are out of lockstep
    (e.g. after running a shard's engine directly). *)

val now : t -> Sim.Sim_time.t

(** {1 Cross-shard link faults} *)

(** Block the directed cross-shard link [(src, dst)], or unblock every
    link: blocked envelopes are dropped at the exchange (counted as
    [xshard.link_dropped] on the destination). Call only between runs or
    from [on_exchange] — link faults take effect at window granularity.
    Server faults are scheduled on the owning shard's engine
    ({!Groupsafe.System.crash}). *)

val block_link : t -> src:int -> dst:int -> unit
val clear_blocked : t -> unit

(** {1 Books} *)

type gack = {
  g_tx : Db.Transaction.id;
  g_outcome : Db.Testable_tx.outcome;
  g_at : Sim.Sim_time.t;
  g_update : bool;
  g_cross : bool;  (** true iff 2PC-coordinated across shards. *)
  g_write_parts : (int * Db.Transaction.id) list;
      (** for a committed cross-shard transaction: the (shard, write
          sub-transaction id) pairs whose durability carries the global
          acknowledgement — what {!Shard_check} audits per shard. *)
}

val acked : t -> gack list
(** Every global acknowledgement across all shards, ordered by
    (time, transaction id) — deterministic at any worker count. *)

val open_coordinators : t -> int
(** Cross-shard coordinators not yet finished, over all shards: those
    still awaiting votes or write acknowledgements, plus wedged ones. A
    coordinator is dropped when it answers its client. Call between
    runs. *)

val write_id : int -> Db.Transaction.id
(** The (negative) id of the phase-2 write sub-transaction of global
    transaction [gtx]; disjoint from every workload id and every phase-1
    probe sub-transaction id. *)

(** {1 Observability} *)

val merged_registry : t -> Obs.Registry.t
(** Every shard's system registry and cross-shard counters ([xshard.*]:
    fast-path and cross-shard submissions, commits/aborts/timeouts, probe
    and write sub-transactions, failed write subs, link drops) folded in
    shard order under [shard.<i>.*] — the per-shard observability
    export. *)

val aggregate_registry : t -> Obs.Registry.t
(** The same metrics folded without prefixes (counters sum across
    shards) — the whole-deployment view. *)
