(** Deterministic schedule exploration with counterexample shrinking.

    The explorer replays {!Schedule.t} values against a fresh {!System.t}
    per schedule: a fixed write-only transaction load is submitted, the
    schedule's crash / recover / delivery-delay and network-fault events
    (partitions, heals, loss windows, duplications) fire at their
    instants, every fault is healed at the horizon and every server
    recovered, and after a quiescence period the
    {!Groupsafe.Safety_checker} oracle inspects the outcome. "Lost"
    therefore means {e permanently} lost — gone even though the whole
    group came back on a connected network. In nemesis mode the
    {!Groupsafe.Convergence} oracle additionally certifies healing
    convergence after every run.

    Two search predicates:

    - {!Any_loss} asks "can this configuration lose an acknowledged
      transaction at all?" — the Fig. 5 question. For classical atomic
      broadcast (group-safe) the answer is yes (whole-group crash before
      the asynchronous flushes), and the explorer rediscovers it; for
      end-to-end broadcast and 2PC the answer must be no.
    - {!Violation} asks "did a loss occur that the technique's advertised
      level does not permit?" ({!Groupsafe.Safety_checker.losses_allowed},
      Tables 2/3). No correct implementation fails this under any
      schedule.

    Exploration is deterministic per seed: a bounded-exhaustive pass over
    small event windows first (so the canonical counterexamples come out
    smallest), then seeded random storms until the budget runs out. The
    first failing schedule is shrunk greedily — re-running candidates from
    {!Schedule.shrink} and keeping the first that still fails, to a
    fixpoint — and the shrunk schedule is re-run with tracing on, so the
    counterexample carries its full {!Sim.Trace}.

    The run machinery — fault interpreter, repair pass, oracle stack,
    storm search and shrinker — works over an array of replica groups, so
    [Shard.Shard_check] checks sharded deployments on the same core. *)

type predicate = Any_loss | Violation

type config = {
  technique : Groupsafe.System.technique;
  predicate : predicate;
  params : Workload.Params.t;  (** [params.servers] is the base server count. *)
  txs : int;  (** write-only transactions on disjoint items. *)
  spacing : Sim.Sim_time.span;  (** transaction [i] is submitted at [i * spacing]. *)
  horizon : Sim.Sim_time.span;  (** fault window; every server is recovered here. *)
  quiescence : Sim.Sim_time.span;  (** settle time after the final recovery. *)
  system_seed : int64;  (** seed of each replayed system (fixed across schedules). *)
  delays : bool;  (** allow delivery-delay events in random schedules. *)
  nemesis : bool;
      (** generate network faults (partitions, loss windows, duplications)
          alongside crashes, and certify healing convergence after every
          run. *)
  liveness : bool;
      (** fairness-constrained liveness mode: storms draw only {e fair}
          schedules ({!Schedule.fairness_violation}; unfair candidates are
          rejected, tallied and redrawn or repaired), the exhaustive pass
          is skipped (its universe is almost entirely unfair), the
          {!Liveness} oracle is certified after every run and folded into
          [failed], and shrinking refuses candidates that would break
          fairness. Implies [nemesis]. *)
  storage : bool;
      (** storage-fault storm mode: storms additionally draw disk-fault
          families (torn writes, lying fsyncs, record corruption — each
          paired with a crash+recover of the same server — plus slow-disk
          and disk-full windows), the exhaustive pass is skipped (a
          destructive arm without its crash is inert), and the
          {!Durability} oracle replaces the loss predicate: a loss is a
          failure only if the advertised level forbids it {e and} at least
          one replica's WAL was honest, and every injected torn tail /
          corruption must have been repaired / detected by the recovery
          scans. Does {e not} imply [nemesis]. *)
  max_decision_us : int option;
      (** liveness mode: bound every decided transaction's
          submission-to-decision latency; decisions beyond it fail the
          verdict as decided-but-late ({!Liveness.verdict.late}). *)
  tuning : Gcs.Bcast_tuning.t;
      (** broadcast-engine tuning (batching, pipelining window,
          dissemination backend) for the Dsm techniques' ordering layer —
          the same storms certify the batched, pipelined and ring
          configurations. Default: the seed engine. *)
  mutate : Groupsafe.System.t -> unit;
      (** oracle-mutation hook, applied to every freshly built system
          before any load (default: nothing). Used to re-break fixed
          protocol bugs ({!Groupsafe.System.break_no_accept_retransmit},
          {!Groupsafe.System.break_early_decision}) and prove the oracles
          would have caught them. *)
}

val default_config :
  ?predicate:predicate ->
  ?nemesis:bool ->
  ?liveness:bool ->
  ?storage:bool ->
  ?max_decision_us:int ->
  ?tuning:Gcs.Bcast_tuning.t ->
  ?mutate:(Groupsafe.System.t -> unit) ->
  Groupsafe.System.technique ->
  config
(** 3 servers, a small database, 2 transactions 5 ms apart, a 60 ms
    fault window and 4 s of quiescence; every system runs the light
    failure detector ({!Gcs.Failure_detector.light_config}). [predicate]
    defaults to {!Violation}, [nemesis], [liveness] and [storage] to
    [false] ([liveness:true] turns [nemesis] on too; [storage] does not);
    delivery-delay events are enabled for the broadcast-based (Dsm)
    techniques only. *)

type outcome = {
  schedule : Schedule.t;
  report : Groupsafe.Safety_checker.report;
  converge : Groupsafe.Convergence.verdict option;
      (** the healing-convergence verdict; [None] unless [config.nemesis]. *)
  liveness : Liveness.verdict option;
      (** the liveness verdict; [None] unless [config.liveness]. Certified
          after the safety and convergence oracles — it is observation-only,
          so the stacking order cannot perturb them. *)
  durability : Durability.verdict option;
      (** the durability verdict; [None] unless [config.storage]. In
          storage mode it replaces the loss predicate in [failed]. *)
  failed : bool;
      (** the predicate (or, in storage mode, the durability verdict)
          fired, or convergence or liveness failed. *)
  trace : string;  (** full rendered {!Sim.Trace}; [""] unless traced. *)
  highlights : string;  (** protocol-level trace lines only. *)
}

val run : ?trace:bool -> config -> Schedule.t -> outcome
(** Replay one schedule on one replica group: the fixed load, then
    {!interpret}, the horizon, {!repair}, the quiescence period and
    {!oracles}. Deterministic: same config and schedule, same outcome, byte
    for byte when traced. *)

(** {2 The checker core over replica groups}

    A deployment under test is an array of replica groups of [sps] servers
    each; global server [gi] is server [gi mod sps] of group [gi / sps].
    {!run} checks one group, [Shard.Shard_check] one group per shard; both
    drive their groups through the functions below and search with
    {!search}. *)

val interpret :
  holds:Sim.Sim_time.span array -> Groupsafe.System.t array -> Schedule.t -> unit
(** Schedule every event of the schedule on its group's engine, in list
    order, at its instant (call before running). Server events go to the
    owning group; [Heal] and loss windows go to every group; a [Partition]
    is split per group, along that group's own members, and replaces the
    group's cut — a group it names no member of gets the empty partition
    if an earlier [Partition] cut it since the last [Heal] (blocked links
    stay, as with any replacing cut). [Delay (gi, d)] writes [holds.(gi)], the
    hold read by server [gi]'s delivery gate. Overlapping loss windows are
    epoch-guarded per group, slow-disk and disk-full windows per server, so
    an earlier window's close never cuts a later one short. *)

val repair : Groupsafe.System.t array -> Schedule.t -> unit
(** The at-horizon repair, so "lost" keeps meaning {e permanently} lost:
    when the schedule has network faults, heal every group and close its
    loss window; when it has slow-disk or disk-full windows, close them on
    every server; then recover every server. Each call writes a trace
    entry, so fault classes the schedule did not use are left untouched. *)

val oracles :
  ?trace:bool ->
  config ->
  delegate_crashed:(int -> Db.Transaction.id -> bool) ->
  Groupsafe.System.t array ->
  Schedule.t ->
  outcome array
(** The oracle stack, one outcome per group, run after quiescence: every
    group's {!Groupsafe.Safety_checker} report and loss predicate (or, with
    [config.storage], {!Durability} verdict) first, then — with
    [config.nemesis] — every group's {!Groupsafe.Convergence} probe (group
    [g]'s probe is transaction [1_000_000 + g]), then — with
    [config.liveness] — every group's {!Liveness} verdict.
    [delegate_crashed g tx] tells whether transaction [tx]'s delegate in
    group [g] crashed during the run. Each outcome records [schedule];
    with [trace], it also carries its group's rendered trace and protocol
    highlights. *)

type phase = Exhaustive | Random_storm

type 'o counterexample = {
  original : Schedule.t;
  found_in : phase;
  runs_to_find : int;  (** schedules executed up to and including the failure. *)
  shrunk : Schedule.t;
  shrink_rounds : int;  (** accepted shrink steps. *)
  shrink_runs : int;  (** candidate re-executions during shrinking. *)
  outcome : 'o;  (** the shrunk schedule's replayed outcome. *)
}

type result = {
  config : config;
  seed : int64;
  budget : int;
  runs : int;  (** schedules executed in the search phases. *)
  rejections : (string * int) list;
      (** liveness mode: fairness-violation reason -> number of storm
          candidates rejected for it, in first-seen order. Candidates are
          drawn sequentially up front, so the tally is byte-identical at
          any worker count. Empty outside liveness mode. *)
  counterexample : outcome counterexample option;
      (** the shrunk schedule's outcome is traced. *)
}

val search :
  ?exhaustive:Schedule.t Seq.t ->
  storm:(unit -> Schedule.t) ->
  admissible:(Schedule.t -> bool) ->
  failed:(Schedule.t -> bool) ->
  replay:(Schedule.t -> 'o) ->
  budget:int ->
  unit ->
  int * 'o counterexample option
(** The storm search behind {!explore} and [Shard.Shard_check.storm]: run
    the [exhaustive] schedules (default none) in order, then draw the rest
    of the [budget] from [storm], stopping at the first schedule that
    [failed]. Every storm is drawn up front on the calling domain, so the
    stream of draws is identical to a sequential run; replays fan out over
    {!Parallel.Domain_pool} in batches, joined by index, and the lowest
    failing index wins. The failure is shrunk to a greedy fixpoint over
    {!Schedule.shrink} candidates — inadmissible ones are refused before
    they run — and the shrunk schedule is [replay]ed. Returns the number of
    schedules run (shrink re-runs not charged) and the counterexample;
    byte-identical at any worker count. *)

val exhaustive :
  config ->
  slots:Sim.Sim_time.span list ->
  max_events:int ->
  recoveries:bool ->
  Schedule.t Seq.t
(** Every schedule whose events are a combination of at most [max_events]
    distinct (slot, event) pairs, smallest first. The universe is, per
    slot, a crash of each server and (when [recoveries]) a recovery of
    each server; slots and crashes come first, so "crash everyone at the
    first slot" is the first schedule of its size. With [config.nemesis]
    each slot additionally offers a single-server partition per server, a
    heal, and a duplicate-next per server (loss windows are storm-only:
    their probability has no natural small universe). *)

val repair_fair : horizon:Sim.Sim_time.span -> Schedule.t -> Schedule.t
(** Deterministically turn any schedule into a fair one: drop events past
    the horizon, clamp loss windows and delays to it, and append the
    missing recoveries and heal at the horizon. Used as the storm
    generator's fallback after repeated unfair draws. *)

val random_schedule : config -> Sim.Rng.t -> max_events:int -> Schedule.t
(** One random storm. Without [config.nemesis] or [config.storage]:
    crashes, recoveries and (when [config.delays]) delivery delays,
    exactly as before. With [nemesis], each network-fault family draws
    from its own stream split off [rng] in a fixed order — crashes, then
    an optional minority partition+heal pair, an optional loss window
    (drop probability in [0.2, 0.9)), and up to two duplications. With
    [storage], the disk-fault families follow, again one split stream
    each: an optional torn-write arm, lying-fsync arms (sometimes the
    whole group at once — the only pattern that defeats every level), an
    optional corruption arm — each destructive arm paired with a crash
    and recovery of its server — plus optional slow-disk (10-100x) and
    disk-full windows. Storms replay deterministically per seed and
    adding one family never perturbs another. *)

val explore :
  ?max_exhaustive_events:int ->
  ?max_random_events:int ->
  seed:int64 ->
  budget:int ->
  config ->
  result
(** {!search} up to [budget] schedules of one group — the {!exhaustive}
    pass first, up to [max_exhaustive_events] (default 3) events at the
    2 ms and 30 ms slots with recoveries (skipped in liveness and storage
    mode), then seeded storms of up to [max_random_events] (default 4)
    events ({!random_schedule}; in liveness mode only fair ones, each
    unfair draw rejected and tallied, and the third rejected draw in a row
    repaired with {!repair_fair}) — stopping at the first failure,
    shrinking it (fairness-preserving in liveness mode) and replaying the
    shrunk schedule with tracing. Deterministic per ([seed], [budget],
    config) and byte-identical at any worker count. *)

(** {2 Directed scenario: a minority partition must stall, not diverge} *)

type stall_outcome = {
  minority : int list;  (** the cut-off server indices. *)
  minority_acked_during : int;  (** acks the minority gave while cut off (want 0). *)
  majority_committed_during : bool;  (** the majority side kept committing. *)
  minority_applied_during : bool;  (** the minority applied anything while cut off (want false). *)
  resumed : bool;  (** the minority's transaction committed everywhere after the heal. *)
  verdict : Groupsafe.Convergence.verdict;
  ok : bool;  (** stalled, majority progressed, resumed, converged. *)
}

val minority_stall : config -> stall_outcome
(** [minority_stall config] settles the group for 1 s (after
    [config.mutate]), partitions server 0 away, submits one transaction to
    each side, holds the cut for 2 s, heals, waits [config.quiescence] and
    certifies. Under uniform delivery the minority must acknowledge and
    apply {e nothing} while cut off, then catch up and answer after the
    heal. Meaningful for the broadcast-based (Dsm) techniques; eager 2PC
    cannot commit on either side with a member unreachable, so [ok] is
    honestly [false] there. *)

(** {2 Directed scenario family: repeated leader kills mid-broadcast} *)

type takeover_outcome = {
  kills : int;  (** rounds requested (3). *)
  killed : int list;  (** leaders killed, in kill order. *)
  takeovers : int;  (** rounds where a {e different} leader was established
                        before the dead one was revived. *)
  submitted_txs : int;  (** transactions put in flight (one per kill round). *)
  liveness : Liveness.verdict;
  converge : Groupsafe.Convergence.verdict;
  ok : bool;
      (** every kill round submitted and handed over, every transaction
          decided, converged. *)
}

val leader_takeover : config -> takeover_outcome
(** [leader_takeover config] settles the group for 1 s (after
    [config.mutate]), then three times over: finds the current ordering
    leader, submits a transaction through a {e different} delegate (which
    stays up, so the liveness oracle owes its decision), crashes the
    leader half a millisecond later — mid-broadcast — waits for a
    successor, revives the dead leader, and finally certifies liveness and
    convergence after [config.quiescence]. One server is down at a time,
    so the group never fails: a correct ordering protocol must re-drive
    the dead leader's in-flight slots and decide every round's
    transaction. Needs at least 3 servers and an ordering layer (Dsm
    techniques). *)

(** {2 Directed scenario: tear the leader's WAL tail, recovery must repair} *)

type torn_outcome = {
  t_rounds : int;  (** rounds requested (3). *)
  t_fired : int;  (** torn writes that actually mutilated a tail record. *)
  t_repaired : int;  (** torn tails the recovery scans truncated. *)
  t_reports : int;  (** recoveries whose repair report was non-empty. *)
  t_verdict : Durability.verdict;
  t_ok : bool;
      (** every round fired, every tear repaired, every recovery reported
          it, and the durability verdict is clean. *)
}

val torn_leader_tail : config -> torn_outcome
(** [torn_leader_tail config] settles the group for 1 s (after
    [config.mutate]), then three times over: submits a transaction through
    the current ordering leader, waits for its commit record to reach the
    WAL, arms a torn write on that leader and crashes it — mutilating the
    newest durable record into a half-written tail frame — recovers it,
    and checks that the recovery scan produced a non-empty repair report.
    The final durability verdict must account for every tear (repaired =
    scanned) and be clean. Needs at least 3 servers. *)

(** {2 Directed scenario: every disk lies, then the whole group crashes} *)

type lie_outcome = {
  f_level : Groupsafe.Safety.level;
  f_acked : int;  (** acknowledged commits before the group crash. *)
  f_lost : int;  (** of those, permanently lost (expected > 0 at every level). *)
  f_lies_dropped : int;  (** acked-but-volatile records dropped at crash. *)
  f_verdict : Durability.verdict;
  f_ok : bool;
      (** the loss was demonstrated {e and} the verdict stayed clean: the
          classification (delegate crash at 1-safe, group failure at
          group-safe, total storage betrayal at 2-safe) permits it. *)
}

val fsync_lie_group_crash : config -> lie_outcome
(** [fsync_lie_group_crash config] settles the group for 1 s (after
    [config.mutate]), arms a lying fsync on {e every} server, submits two
    transactions through delegate 0, lets acks and propagation land,
    crashes the whole group, recovers it and certifies durability. Every
    level loses the acked transactions (their records were volatile on
    every disk); what the oracle certifies is the {e classification} —
    1-safe's loss was already permitted by the delegate crash
    (flagged-but-allowed), group-safe's by the group failure, 2-safe's
    only by the total betrayal — so the verdict must report the loss yet
    stay clean. *)

val pp_stall : Format.formatter -> stall_outcome -> unit
val pp_takeover : Format.formatter -> takeover_outcome -> unit
val pp_torn : Format.formatter -> torn_outcome -> unit
val pp_lie : Format.formatter -> lie_outcome -> unit

val pp_result : Format.formatter -> result -> unit
(** Search statistics; on failure, the original and shrunk schedules, the
    oracle's report and the protocol-level trace of the shrunk run. *)

val render_result : result -> string
