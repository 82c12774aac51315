(* The checker's storm families, as the faults workload runs them: the
   nemesis on 2-safe and on eager 2PC, fair liveness storms on 2-safe,
   storage-fault storms on group-safe, and sharded storms on two shards.
   Every storm must certify clean. *)

[@@@lint.allow "D-wallclock" "the benchmark measures real elapsed time by design"]

open Groupsafe
module E = Check.Explorer

type family = Nemesis | Liveness | Storage | Shard

type run = {
  family : family;
  runs : int;  (** schedules executed. *)
  clean : bool;  (** no counterexample found. *)
  wall_s : float;
  events : int;
}

let two_safe = System.Dsm Dsm_replica.Two_safe_mode

let explore ~seed ~budget cfg =
  let r = E.explore ~seed ~budget ~max_exhaustive_events:0 ~max_random_events:3 cfg in
  (r.E.runs, Option.is_none r.E.counterexample)

let calls =
  [
    ( Nemesis,
      "Explorer.explore nemesis 2-safe",
      fun ~seed ~budget ->
        explore ~seed ~budget (E.default_config ~predicate:E.Any_loss ~nemesis:true two_safe) );
    ( Nemesis,
      "Explorer.explore nemesis 2pc",
      fun ~seed ~budget ->
        explore ~seed ~budget (E.default_config ~predicate:E.Any_loss ~nemesis:true System.Two_pc) );
    ( Liveness,
      "Explorer.explore liveness 2-safe",
      fun ~seed ~budget -> explore ~seed ~budget (E.default_config ~liveness:true two_safe) );
    ( Storage,
      "Explorer.explore storage group-safe",
      fun ~seed ~budget -> explore ~seed ~budget (E.default_config ~storage:true Cells.group_safe) );
    ( Shard,
      "Shard_check.storm 2 shards",
      fun ~seed ~budget ->
        let r =
          Shard.Shard_check.storm ~seed ~budget
            (Shard.Shard_check.default_config ~shards:2 ~cross_every:2 two_safe)
        in
        (r.Shard.Shard_check.runs, Option.is_none r.Shard.Shard_check.counterexample) );
  ]

let run_all ~seed ~budget =
  List.map
    (fun (family, name, call) ->
      let t0 = Unix.gettimeofday () and e0 = Sim.Engine.global_executed () in
      let runs, clean = Spans.span ~layer:"check" name (fun () -> call ~seed ~budget) in
      {
        family;
        runs;
        clean;
        wall_s = Unix.gettimeofday () -. t0;
        events = Sim.Engine.global_executed () - e0;
      })
    calls
