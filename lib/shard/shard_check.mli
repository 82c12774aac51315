(** Fault-injection checking for sharded deployments (docs/SHARDING.md).

    Runs a {!Sharded_system} under a {!Check.Schedule} over the {e global}
    server space ([shards * servers-per-shard] servers; global index [gi]
    is server [gi mod sps] of shard [gi / sps]), decomposing each fault
    onto the shard it touches. Partitions additionally derive cross-shard
    link blocks: shard [s] is represented by server [s * sps], and two
    shards exchange envelopes only while their representatives share a
    partition group — so a partition isolating one whole replica group
    cuts every cross-shard link of that shard while its own network stays
    intact, and a cut straight across the groups severs both intra- and
    cross-shard traffic. Link faults act at window granularity (applied at
    the exchange barriers).

    The oracle aggregates per shard — safety report, Table-3 loss
    classification, durability and convergence each run against every
    shard's [System] — and adds two global checks over the cross-shard
    acknowledgement book:
    {ul
    {- {b loss}: a committed cross-shard transaction is lost iff any of
       its write sub-transactions is lost on its shard; the loss is
       forbidden unless that shard's safety level permits it under that
       shard's failures;}
    {- {b atomicity}: every write part of a committed cross-shard
       transaction must be committed on every serving server of its
       shard.}} *)

type config = {
  technique : Groupsafe.System.technique;
  shards : int;
  params : Workload.Params.t;
      (** per-shard parameters ([servers] = replica-group size of one
          shard, [items] = global key space), as in {!Sharded_system}. *)
  txs : int;
  spacing : Sim.Sim_time.span;
  cross_every : int;
      (** every [cross_every]-th transaction also writes the next shard's
          range and is 2PC-certified; [0] means single-shard only. *)
  horizon : Sim.Sim_time.span;
  quiescence : Sim.Sim_time.span;
  system_seed : int64;
}

val default_config : ?shards:int -> ?cross_every:int -> Groupsafe.System.technique -> config

type shard_verdict = {
  sv_shard : int;
  sv_report : Groupsafe.Safety_checker.report;
  sv_losses_allowed : bool;
  sv_durability : Check.Durability.verdict;
  sv_converge : Groupsafe.Convergence.verdict;
  sv_ok : bool;  (** durability clean and converged. *)
}

type cross_verdict = {
  cv_cross_acked : int;
  cv_cross_committed : int;
  cv_lost_parts : (Db.Transaction.id * int list) list;
      (** committed cross-shard transactions with a lost write
          sub-transaction, with the shards that lost it. *)
  cv_forbidden : (Db.Transaction.id * int list) list;
      (** the subset whose loss the losing shard's safety level does not
          excuse. *)
  cv_broken_atomicity : (Db.Transaction.id * int list) list;
      (** committed cross-shard transactions with a write part missing on
          a serving server of some shard (and not already counted lost). *)
  cv_ok : bool;
}

type outcome = {
  schedule : Check.Schedule.t;
  shard_verdicts : shard_verdict list;
  cross : cross_verdict;
  failed : bool;
  registry : Obs.Registry.t;
      (** the run's merged [shard.<i>.*] observability export. *)
}

val run : config -> Check.Schedule.t -> outcome
(** Execute one schedule: fixed write-only load, faults, repair
    everything, quiescence, then the oracles.
    @raise Invalid_argument if the schedule's server count differs from
    [shards * servers-per-shard] or it contains delivery-delay events
    (not in the sharded vocabulary). *)

(** {1 Directed nemesis building blocks} *)

val isolate_shard_events :
  sps:int ->
  shard:int ->
  at:Sim.Sim_time.span ->
  hold:Sim.Sim_time.span ->
  Check.Schedule.event list
(** A partition cutting every cross-shard link of one shard's replica
    group (its own network intact), healed after [hold]. *)

(** {1 Storm search} *)

type counterexample = outcome Check.Explorer.counterexample
(** Its [outcome] is the shrunk schedule's replayed outcome. *)

type result = {
  config : config;
  seed : int64;
  budget : int;
  runs : int;
  counterexample : counterexample option;
}

val storm : ?max_events:int -> seed:int64 -> budget:int -> config -> result
(** Run up to [budget] random sharded storms through
    {!Check.Explorer.search}, stopping at the first failure and shrinking
    it at a fixed server count. Storms are drawn up front — crashes and
    recoveries over the global servers, then one of nothing / a
    whole-shard isolation / a cut across the groups, and an optional loss
    window (at most [max_events], default 4, crash events) — and replayed
    in parallel across storms, each run on one domain; the result is
    byte-identical at any worker count. *)

(** {1 Printing} *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_result : Format.formatter -> result -> unit
val render_result : result -> string
