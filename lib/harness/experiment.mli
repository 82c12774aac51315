(** Experiment drivers: one entry point per table and figure of the paper
    (see DESIGN.md's experiment index), plus the ablations.

    Every driver prints a self-contained report to stdout and is
    deterministic for a given seed. [fig9] also writes a CSV next to the
    working directory for plotting.

    Sweeps of independent simulations — the Fig. 9 (load, technique,
    replication) cells, the closed-loop operating points, the Table 2/3
    crash-scenario matrices, the scale-out / eager / ablation grids — fan
    out over {!Parallel.Domain_pool}: each cell's seed is assigned up
    front, the work items neither print nor share state, and results are
    joined by index before any printing, so every table and CSV is
    byte-identical at any worker count (see docs/PERFORMANCE.md). [all]
    additionally times each section into {!Report.timings}. *)

type load_point = {
  technique : Groupsafe.System.technique;
  load_tps : float;
  mean_ms : float;  (** mean client response time. *)
  p95_ms : float;
  abort_rate : float;  (** certification aborts / decided. *)
  throughput_tps : float;  (** committed per second, post-warm-up. *)
  completed : int;  (** responses measured. *)
  registry : Obs.Registry.t;
      (** the run's metrics registry (counters, gauges, histograms),
          including the [res.cpu]/[res.disk] sampler series. *)
  trace_events : Obs.Tracer.event list;
      (** recorded spans; empty unless the run traced ([obs_trace]). *)
}

val run_load_point :
  ?seed:int64 ->
  ?params:Workload.Params.t ->
  ?warmup_s:float ->
  ?measure_s:float ->
  ?apply_write_factor:float ->
  ?tuning:Gcs.Bcast_tuning.t ->
  ?obs_trace:bool ->
  Groupsafe.System.technique ->
  load_tps:float ->
  load_point
(** One simulated run: open Poisson arrivals at [load_tps] over the
    Table 4 system, [warmup_s] (default 5) discarded, [measure_s]
    (default 60) measured. [tuning] selects the broadcast-engine tuning
    (batching, window, dissemination backend) for the Dsm techniques.
    Resource samplers are always attached; [obs_trace] (default [false])
    additionally records tracer spans into [trace_events]. *)

val run_sharded_load_point :
  ?seed:int64 ->
  ?params:Workload.Params.t ->
  ?warmup_s:float ->
  ?measure_s:float ->
  ?tuning:Gcs.Bcast_tuning.t ->
  ?shards:int ->
  ?cross_fraction:float ->
  ?zipf_s:float ->
  ?jobs:int ->
  Groupsafe.System.technique ->
  load_tps:float ->
  load_point
(** One run on a {!Shard.Sharded_system}: [shards] (default 1) replica
    groups of [params.servers] each over the global [params.items] key
    space, the offered load split evenly, shard [i] generating ids
    [i, i + shards, ...] over its own key range ([zipf_s > 0] skews the
    choice, Zipf-style). [cross_fraction] of submissions (only drawn when
    [shards > 1]) extend the transaction with a write on the next shard
    and go through cross-shard 2PC. With [shards = 1] the run reproduces
    {!run_load_point} byte-for-byte. The returned point aggregates across
    shards (responses merged, commits summed); [registry] holds the
    merged [shard.<i>.*] export and [trace_events] is empty. Results are
    byte-identical at any [jobs]. *)

val default_loads : float list
(** The paper's X axis: 20..40 tps in steps of 2. *)

val fig9 :
  ?seed:int64 ->
  ?loads:float list ->
  ?measure_s:float ->
  ?tuning:Gcs.Bcast_tuning.t ->
  ?replications:int ->
  ?csv_path:string ->
  ?trace_out:string ->
  ?metrics_out:string ->
  ?shards:int ->
  ?cross_fraction:float ->
  unit ->
  unit
(** Figure 9: response time vs offered load (default 20..40 tps in steps
    of 2) for group-safe, group-1-safe and lazy 1-safe replication, plus
    the group-safe abort rate the paper quotes (§6). With
    [replications > 1] each point averages that many independently seeded
    runs and reports a 95% confidence half-width. [metrics_out] writes
    every cell's metrics, merged per technique in fixed index order, as a
    {!Obs.Export} dump (JSON, or CSV for a [.csv] path); [trace_out]
    records each technique's first-load replication-0 cell and writes a
    Chrome trace-event file. Both are byte-identical at any [--jobs]
    count. With [shards > 1] every cell runs {!run_sharded_load_point}
    on that many Table 4 groups ([cross_fraction] of submissions
    cross-shard); trace capture is unsharded-only and ignored. *)

val default_ceiling_loads : float list
(** The extended Fig. 9 load axis: 40..2240 tps, far past the ~38 tps
    crossover of the paper's hardware. *)

val broadcast_ceiling : ?seed:int64 -> ?loads:float list -> ?measure_s:float -> unit -> unit
(** The broadcast-engine ceiling study (docs/PERFORMANCE.md): first the
    ordering layer's raw ceiling for the seed, batched, ring and
    ring+batched engines — decided values per simulated second when a
    bare 9-member volatile replicated log on the LAN model takes a
    400-value burst at its leader (the engine-level speedups); then the
    full system on Table 4 with
    storage 10x faster than the paper's 2004 disks (so the ordering layer,
    not the ordered-apply pipeline, is the binding resource) swept over
    [loads] (default {!default_ceiling_loads}) for group-safe on the seed,
    batched and ring+batched engines and 2-safe on the seed and batched
    engines, reporting each backend's saturation point (highest load still
    serving >= 95% of the offered rate) and where the seed group-safe
    stack's latency advantage over batched 2-safe collapses. Cells fan out
    over the pool with seeds fixed up front; byte-identical at any
    [--jobs] count. *)

val run_closed_point :
  ?seed:int64 ->
  ?params:Workload.Params.t ->
  ?warmup_s:float ->
  ?measure_s:float ->
  Groupsafe.System.technique ->
  think_time_s:float ->
  float * float * float
(** One closed-loop run with the Table 4 client population (4 clients per
    server, exponential think time). Returns (achieved throughput tps,
    mean response ms, abort rate). *)

val closed_loop : ?seed:int64 -> unit -> unit
(** The Fig. 9 comparison under the paper's closed-loop client model: a
    think-time sweep yields (throughput, response) operating points per
    technique. *)

val table1 : unit -> unit
(** Table 1: the delivered × logged safety lattice, from {!Groupsafe.Safety}. *)

val table2 : ?seed:int64 -> unit -> unit
(** Table 2, empirically: for each safety level, worst-case crash schedules
    with zero, a minority, and all servers crashing; reports observed loss
    against the level's advertised tolerance. *)

val table3 : ?seed:int64 -> unit -> unit
(** Table 3, empirically: group-safe vs group-1-safe under {no group
    failure} × {group fails, delegate survives} × {group fails, delegate
    crashes}. *)

val table4 : unit -> unit
(** Table 4: the simulator parameters in use. *)

val fig5 : ?seed:int64 -> unit -> unit
(** The Fig. 5 scenario end to end on classical atomic broadcast
    (group-safe technique): the acknowledged transaction is lost when the
    whole group crashes. Prints the trace highlights and the checker
    verdict. *)

val fig7 : ?seed:int64 -> unit -> unit
(** The Fig. 7 scenario: same schedule on end-to-end atomic broadcast
    (2-safe technique); the message is replayed and nothing is lost. *)

val latency : ?seed:int64 -> unit -> unit
(** §6's two numbers: mean atomic-broadcast latency vs mean disk (log)
    write latency under the Fig. 9 settings — the gap that makes
    group-safety pay on a LAN. *)

val observability : ?seed:int64 -> unit -> unit
(** The observability layer's own section: one moderate-load run per
    technique, reporting commit-latency percentiles, the delegate-side
    phase breakdown (read / broadcast / certify / wal) and the
    acknowledgement-path counters — disk write before vs after the client
    answer, the mechanism behind Fig. 9's group-safe advantage. *)

val obs_demo : ?seed:int64 -> unit -> string * string
(** The fixed observability demo: ten handwritten staggered update
    transactions on a 3-server group-safe system with samplers attached.
    Returns [(chrome_trace_json, metrics_json)] — fully deterministic, so
    the golden exporter test diffs these bytes and the CLI [obs] command
    writes the same artifacts. *)

val section7 : unit -> unit
(** §7: analytic scaling of lazy's inconsistency risk vs group-safe's
    loss risk as servers are added, plus an empirical lazy divergence
    measurement. *)

val scaleout : ?seed:int64 -> unit -> unit
(** Response time as servers are added at constant per-server load: what
    full replication does and does not buy (companion to §7). *)

val recovery : ?seed:int64 -> unit -> unit
(** Catch-up time after an outage: state-transfer recovery (classical
    broadcast) vs log replay (end-to-end broadcast), across outage
    lengths. *)

val eager_comparison : ?seed:int64 -> unit -> unit
(** The introduction's comparison point: eager update-everywhere over 2PC
    against the group-communication techniques — response time and abort
    (deadlock) behaviour under the Table 4 workload. *)

val ablation_group_commit : ?seed:int64 -> unit -> unit
(** DESIGN ablation 2: group commit on/off for the flush-bound
    group-1-safe technique. *)

val ablation_apply_factor : ?seed:int64 -> unit -> unit
(** DESIGN ablation 3: how the ordered-apply coalescing factor moves the
    group-safe saturation point. *)

val ablation_buffer : ?seed:int64 -> unit -> unit
(** Buffer hit-ratio sweep: how the delegate's read phase scales every
    technique's base response (Table 4 fixes 20%). *)

val ablation_loss : ?seed:int64 -> unit -> unit
(** Network message-loss sweep: retransmission and catch-up convert losses
    into tail latency, not lost transactions. *)

val ablation_uniformity : ?seed:int64 -> unit -> unit
(** DESIGN ablation 1: non-uniform (optimistic) delivery saves most of the
    broadcast latency but lets an isolated delegate acknowledge a
    transaction nobody else will learn — group-safety then breaks with a
    single crash. *)

val explore : ?seed:int64 -> ?budget:int -> unit -> bool
(** The checking subsystem's acceptance run ({!Check.Explorer}): rediscover
    the Fig. 5 loss on classical atomic broadcast and shrink it to at most
    six events, certify the end-to-end (2-safe) and eager-2PC
    configurations loss-free across the explored schedules, and sweep
    every technique for losses its advertised level forbids. Prints each
    exploration's report; [true] iff every check passed. Deterministic per
    [seed] (default 42); [budget] (default 500) is the schedule count per
    certification, a quarter of it per violation sweep. *)

val write_counterexample : path:string -> what:string -> Check.Explorer.result -> unit
(** Write the result's counterexample, if it has one, to [path] as a
    corpus entry, and note ["<what> written to <path>"]. The file holds a
    [# technique=] directive ({!Groupsafe.System.technique_name}) and the
    shrunk schedule in {!Check.Schedule.serialize} form, then the report
    and the shrunk run's full trace as [# ]-prefixed comment lines. The
    nemesis, liveness and storage runs write their failures with it. *)

val nemesis :
  ?seed:int64 -> ?budget:int -> ?counterexample_path:string -> unit -> bool
(** The nemesis acceptance run: [budget] (default 500) seeded storms of
    combined crashes, minority partitions, loss windows and duplicated
    deliveries per configuration, each certified loss-free {e and}
    convergent after healing, for the end-to-end (2-safe) and eager-2PC
    configurations; plus the directed minority-stall scenario on
    group-safe ({!Check.Explorer.minority_stall}). On failure the shrunk
    counterexample is written by {!write_counterexample} to
    [counterexample_path] (default ["nemesis-counterexample.txt"]) for CI
    artifact upload. [true] iff every check passed; deterministic per
    [seed] (default 42). *)

val liveness :
  ?seed:int64 ->
  ?budget:int ->
  ?max_decision_us:int ->
  ?counterexample_path:string ->
  unit ->
  bool
(** The liveness acceptance run ({!Check.Liveness}): [budget] (default 500)
    fairness-constrained storms per configuration, every run certified by
    the safety, convergence {e and} liveness oracles. With
    [max_decision_us], every decided transaction's submission-to-decision
    latency is additionally bounded: decisions beyond it fail the verdict
    as decided-but-late, reported distinctly from wedged ones. First the
    oracle-mutation rediscoveries — re-break the leader's Accept
    retransmission and 2PC's pre-durability decision answers through
    {!Groupsafe.System.break_no_accept_retransmit} /
    {!Groupsafe.System.break_early_decision} and demand each bug is found
    again and shrunk to a {e fair} schedule — then the fixed tree is
    certified clean on the end-to-end (2-safe) and eager-2PC
    configurations, and the repeated-leader-kill takeover family
    ({!Check.Explorer.leader_takeover}) runs on both broadcast stacks. On
    failure the shrunk counterexample is written by {!write_counterexample}
    to [counterexample_path] (default ["liveness-counterexample.txt"]) for
    CI artifact upload. [true] iff every check passed; deterministic per
    [seed] (default 42) at any worker count. *)

val storage :
  ?seed:int64 -> ?budget:int -> ?counterexample_path:string -> unit -> bool
(** The storage-fault acceptance run ({!Check.Durability}): [budget]
    (default 500) seeded storms per configuration mixing crashes with disk
    faults — torn tail writes, lying fsyncs (sometimes the whole group at
    once), record corruption, slow-disk and disk-full windows — each run
    certified by the durability oracle: losses only where the advertised
    level or total storage betrayal permits them, every injected torn tail
    repaired and every corruption detected by the recovery scans. Storms
    certify the group-safe classical, end-to-end (2-safe) and eager-2PC
    configurations; the skip-checksum oracle mutation
    ({!Groupsafe.System.break_skip_checksum}) must be rediscovered; the
    directed {!Check.Explorer.torn_leader_tail} family must repair every
    tear with a non-empty repair report; and the
    {!Check.Explorer.fsync_lie_group_crash} scenario must demonstrate the
    acked-transaction loss at 1-safe, group-safe and 2-safe with the
    verdict clean (permitted by delegate crash, group failure and total
    betrayal respectively). On failure the shrunk counterexample is written
    by {!write_counterexample} to [counterexample_path] (default
    ["storage-counterexample.txt"]) for CI artifact upload. [true] iff
    every check passed; deterministic per [seed] (default 42) at any
    worker count. *)

val default_shard_counts : int list
(** The shard-out X axis: 1..32 shards in powers of two. *)

val shardout :
  ?seed:int64 ->
  ?counts:int list ->
  ?load_tps:float ->
  ?measure_s:float ->
  ?cross_fraction:float ->
  ?zipf_s:float ->
  unit ->
  unit
(** The shard-out study (docs/SHARDING.md): aggregate committed
    throughput vs shard count for group-safe replication, 3 servers per
    shard, at a fixed offered load (default 320 tps — far past one
    group's ceiling) over Zipf-skewed keys. Reports a shard-local sweep
    (fast path only) and a cross-shard sweep ([cross_fraction] of
    submissions 2PC-certified), plus the 8-shards-vs-1 scaling ratio. *)

val shard_storms : ?seed:int64 -> ?budget:int -> ?shards:int -> unit -> bool
(** The sharded-storm acceptance run ({!Shard.Shard_check}): [budget]
    (default 500) seeded storms per configuration on [shards] (default 2)
    replica groups with every second transaction cross-shard, mixing
    crashes, whole-shard isolations, cross-group cuts and loss windows;
    every run must leave each shard durability-clean and convergent,
    every committed cross-shard transaction atomic, and losses only where
    the shard's level permits them. Certifies the end-to-end (2-safe) and
    eager-2PC configurations; [true] iff no counterexample was found.
    Deterministic per [seed] (default 42). *)

val all : ?seed:int64 -> ?fast:bool -> unit -> unit
(** Run everything in paper order. [fast] (default false) shrinks the
    Fig. 9 sweep for quick smoke runs. *)
