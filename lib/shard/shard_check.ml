open Groupsafe
module St = Sim.Sim_time
module Schedule = Check.Schedule
module E = Check.Explorer

type config = {
  technique : System.technique;
  shards : int;
  params : Workload.Params.t;
  txs : int;
  spacing : St.span;
  cross_every : int;
  horizon : St.span;
  quiescence : St.span;
  system_seed : int64;
}

(* The unsharded explorer's small-system shape and timing, with a key
   space wide enough that every shard's range holds the whole fixed load. *)
let default_config ?(shards = 2) ?(cross_every = 2) technique =
  let e = E.default_config technique in
  {
    technique;
    shards;
    params = { e.E.params with Workload.Params.items = 240 };
    txs = 4;
    spacing = e.E.spacing;
    cross_every;
    horizon = e.E.horizon;
    quiescence = e.E.quiescence;
    system_seed = e.E.system_seed;
  }

type shard_verdict = {
  sv_shard : int;
  sv_report : Safety_checker.report;
  sv_losses_allowed : bool;
  sv_durability : Check.Durability.verdict;
  sv_converge : Convergence.verdict;
  sv_ok : bool;
}

type cross_verdict = {
  cv_cross_acked : int;
  cv_cross_committed : int;
  cv_lost_parts : (Db.Transaction.id * int list) list;
  cv_forbidden : (Db.Transaction.id * int list) list;
  cv_broken_atomicity : (Db.Transaction.id * int list) list;
  cv_ok : bool;
}

type outcome = {
  schedule : Schedule.t;
  shard_verdicts : shard_verdict list;
  cross : cross_verdict;
  failed : bool;
  registry : Obs.Registry.t;
}

(* Cross-shard link changes derived from the schedule's partitions,
   applied at window barriers (link faults act at window granularity). *)
type link_cmd = Block of (int * int) list | Unblock_all

(* Shard-to-shard reachability under a global partition: shard [s] is
   represented by its server [s * sps] (replica groups are placed whole
   into partition groups by the sharded fault vocabulary; a cut that
   splits a group only cuts inside that shard's own network). Two shards
   talk iff their representatives share a partition group — servers in no
   explicit group form the implicit last group together. *)
let blocked_pairs ~shards ~sps groups =
  let rep s =
    let gi = s * sps in
    let rec find k = function
      | [] -> -1
      | g :: rest -> if List.mem gi g then k else find (k + 1) rest
    in
    find 0 groups
  in
  let reps = Array.init shards rep in
  List.concat
    (List.init shards (fun a ->
         List.filter_map
           (fun b -> if a <> b && reps.(a) <> reps.(b) then Some (a, b) else None)
           (List.init shards Fun.id)))

let run config schedule =
  let sps = config.params.Workload.Params.servers in
  let shards = config.shards in
  let n = shards * sps in
  if schedule.Schedule.servers <> n then
    invalid_arg "Shard_check.run: schedule servers must equal shards * servers-per-shard";
  List.iter
    (fun e ->
      match e.Schedule.kind with
      | Schedule.Delay _ ->
        invalid_arg "Shard_check.run: delivery-delay events are not in the sharded vocabulary"
      | _ -> ())
    schedule.Schedule.events;
  let scfg =
    Sharded_system.config ~seed:config.system_seed ~fd_config:Gcs.Failure_detector.light_config
      ~trace_enabled:false ~shards ~params:config.params config.technique
  in
  let t = Sharded_system.create scfg in
  let map = Sharded_system.map t in
  let groups = Array.init shards (Sharded_system.sys t) in
  (* The fixed load: write-only transactions, each homed on shard
     [i mod shards] with delegate [i mod sps] there, writing two items of
     its home range; every [cross_every]-th transaction also writes one
     item of the next shard's range and so goes through cross-shard 2PC. *)
  for i = 0 to schedule.Schedule.txs - 1 do
    let home = i mod shards in
    let local = i mod sps in
    let j = i / shards in
    let lo, hi = Shard_map.range map home in
    let width = hi - lo in
    let ops =
      [
        Db.Op.Write (lo + (2 * j mod width), i + 1);
        Db.Op.Write (lo + (((2 * j) + 1) mod width), i + 1);
      ]
    in
    let ops =
      if shards > 1 && config.cross_every > 0 && i mod config.cross_every = 0 then begin
        let partner = (home + 1) mod shards in
        let plo, phi = Shard_map.range map partner in
        ops @ [ Db.Op.Write (plo + (2 * j mod (phi - plo)), i + 1) ]
      end
      else ops
    in
    let tx = Db.Transaction.make ~id:i ~client:0 ops in
    Sim.Engine.schedule (Sharded_system.engine_of t home)
      ~delay:(St.span_us (St.span_to_us schedule.Schedule.spacing * i))
      (fun () ->
        if System.alive groups.(home) local then
          Sharded_system.submit t ~delegate:((home * sps) + local) tx)
  done;
  (* The faults run on the explorer's interpreter (no delivery gates:
     delay events were refused above). Partitions and heals additionally
     become cross-shard link commands, applied at the window barriers
     once the window reaching their instant closes. *)
  E.interpret ~holds:[||] groups schedule;
  let pending =
    ref
      (List.stable_sort
         (fun (a, _) (b, _) -> Int.compare (St.span_to_us a) (St.span_to_us b))
         (List.filter_map
            (fun e ->
              match e.Schedule.kind with
              | Schedule.Partition cut ->
                Some (e.Schedule.at, Block (blocked_pairs ~shards ~sps cut))
              | Schedule.Heal -> Some (e.Schedule.at, Unblock_all)
              | _ -> None)
            schedule.Schedule.events))
  in
  let on_exchange ~window:_ ~until =
    let rec apply () =
      match !pending with
      | (at, cmd) :: rest when St.(St.add St.zero at < until) ->
        pending := rest;
        (match cmd with
        | Block pairs ->
          Sharded_system.clear_blocked t;
          List.iter (fun (src, dst) -> Sharded_system.block_link t ~src ~dst) pairs
        | Unblock_all -> Sharded_system.clear_blocked t);
        apply ()
      | _ -> ()
    in
    apply ()
  in
  (* One domain per run: storms fan out across the domain pool instead, so
     the pool and the windowed runner never nest. *)
  Sharded_system.run_for ~jobs:1 ~on_exchange t config.horizon;
  (* Repair everything before quiescence, exactly like the unsharded
     explorer — including the cross-shard links. *)
  Sharded_system.clear_blocked t;
  E.repair groups schedule;
  Sharded_system.run_for ~jobs:1 t config.quiescence;
  (* ---- oracles ---- *)
  (* Sub-transaction delegates reuse their global transaction's local
     index, so one mapping answers for workload ids and sub ids alike. *)
  let delegate_crashed s id =
    let g = if id >= 0 then id else (-id - 1) / 2 in
    (System.history groups.(s) (g mod sps)).Gcs.Process_class.crashes <> []
  in
  (* Each shard's verdict is the explorer's storage + nemesis stack. Its
     convergence probes run each shard's engine solo, so no further
     windowed run may follow. *)
  let verdicts =
    E.oracles
      (E.default_config ~nemesis:true ~storage:true config.technique)
      ~delegate_crashed groups schedule
  in
  let reports = Array.map (fun o -> o.E.report) verdicts in
  let shard_verdicts =
    List.init shards (fun s ->
        let o = verdicts.(s) in
        {
          sv_shard = s;
          sv_report = o.E.report;
          sv_losses_allowed =
            Safety_checker.losses_allowed o.E.report ~delegate_crashed:(delegate_crashed s);
          (* Storage mode and nemesis mode: both verdicts are present. *)
          sv_durability = Option.get o.E.durability;
          sv_converge = Option.get o.E.converge;
          sv_ok = not o.E.failed;
        })
  in
  (* Cross-shard audit over the global acknowledgement book: a committed
     cross-shard transaction is lost iff any of its write sub-transactions
     is lost on its shard; such a loss is excused only if that shard's
     level permits it under that shard's failures (Table 3 per shard). And
     atomicity: every write part must be committed on every serving server
     of its shard — a half-applied global commit is a bug no matter what
     survived. *)
  let gacks = Sharded_system.acked t in
  let cross_acked = List.filter (fun g -> g.Sharded_system.g_cross) gacks in
  let cross_committed =
    List.filter
      (fun g ->
        Db.Testable_tx.outcome_equal g.Sharded_system.g_outcome Db.Testable_tx.Committed)
      cross_acked
  in
  let lost_parts =
    List.filter_map
      (fun g ->
        match
          List.filter_map
            (fun (p, wid) ->
              if
                List.exists
                  (fun l -> l.Safety_checker.tx = wid)
                  reports.(p).Safety_checker.lost
              then Some p
              else None)
            g.Sharded_system.g_write_parts
        with
        | [] -> None
        | ps -> Some (g.Sharded_system.g_tx, ps))
      cross_committed
  in
  let forbidden =
    List.filter_map
      (fun (gtx, ps) ->
        match
          List.filter
            (fun p ->
              not
                (Safety.lost_if reports.(p).Safety_checker.level
                   ~group_failed:reports.(p).Safety_checker.group_failed
                   ~delegate_crashed:(delegate_crashed p (Sharded_system.write_id gtx))))
            ps
        with
        | [] -> None
        | ps -> Some (gtx, ps))
      lost_parts
  in
  let broken_atomicity =
    List.filter_map
      (fun g ->
        match
          List.filter_map
            (fun (p, wid) ->
              let missing = ref false in
              for l = 0 to sps - 1 do
                if System.serving groups.(p) l && not (System.committed_on groups.(p) ~server:l wid)
                then missing := true
              done;
              (* A shard that lost the sub-transaction outright is already
                 counted (and classified) as a loss, not as broken
                 atomicity. *)
              if
                !missing
                && not
                     (List.exists
                        (fun l -> l.Safety_checker.tx = wid)
                        reports.(p).Safety_checker.lost)
              then Some p
              else None)
            g.Sharded_system.g_write_parts
        with
        | [] -> None
        | ps -> Some (g.Sharded_system.g_tx, ps))
      cross_committed
  in
  let cross =
    {
      cv_cross_acked = List.length cross_acked;
      cv_cross_committed = List.length cross_committed;
      cv_lost_parts = lost_parts;
      cv_forbidden = forbidden;
      cv_broken_atomicity = broken_atomicity;
      cv_ok = forbidden = [] && broken_atomicity = [];
    }
  in
  let failed =
    List.exists (fun v -> not v.sv_ok) shard_verdicts || not cross.cv_ok
  in
  {
    schedule;
    shard_verdicts;
    cross;
    failed;
    registry = Sharded_system.merged_registry t;
  }

(* ---- storm generation ---- *)

(* Directed building blocks for the shard-aware nemesis. *)

let isolate_shard_events ~sps ~shard ~at ~hold =
  let members = List.init sps (fun l -> (shard * sps) + l) in
  [
    { Schedule.at; kind = Schedule.Partition [ members ] };
    { Schedule.at = St.span_add at hold; kind = Schedule.Heal };
  ]

(* One random sharded storm. Fault families draw from split streams in a
   fixed order (the unsharded explorer's determinism argument): random
   crashes/recoveries over the global servers, then one of — nothing, a
   whole-shard isolation (the partition cuts every cross-shard link of one
   group while its own network stays intact), or a cut straight across the
   groups (a random minority of global servers on one side) — and an
   optional per-shard loss window. *)
let random_schedule config rng ~max_events =
  let sps = config.params.Workload.Params.servers in
  let n = config.shards * sps in
  let window_us = St.span_to_us config.horizon * 3 / 4 in
  let crash_rng = Sim.Rng.split rng in
  let part_rng = Sim.Rng.split rng in
  let loss_rng = Sim.Rng.split rng in
  let n_crash = 1 + Sim.Rng.int crash_rng (Int.max 1 max_events) in
  let crashes =
    List.init n_crash (fun _ ->
        let at = St.span_us (Sim.Rng.int crash_rng (window_us + 1)) in
        let server = Sim.Rng.int crash_rng n in
        let kind =
          if Sim.Rng.int crash_rng 2 = 0 then Schedule.Crash server else Schedule.Recover server
        in
        { Schedule.at; kind })
  in
  let partition =
    match Sim.Rng.int part_rng 3 with
    | 0 -> []
    | 1 when config.shards > 1 ->
      let shard = Sim.Rng.int part_rng config.shards in
      let at = St.span_us (Sim.Rng.int part_rng (window_us + 1)) in
      let hold = St.span_us (1_000 + Sim.Rng.int part_rng window_us) in
      isolate_shard_events ~sps ~shard ~at ~hold
    | _ ->
      let size = 1 + Sim.Rng.int part_rng (Int.max 1 ((n - 1) / 2)) in
      let members =
        List.sort_uniq Int.compare (List.init size (fun _ -> Sim.Rng.int part_rng n))
      in
      let at_us = Sim.Rng.int part_rng (window_us + 1) in
      let hold_us = 1_000 + Sim.Rng.int part_rng window_us in
      [
        { Schedule.at = St.span_us at_us; kind = Schedule.Partition [ members ] };
        { Schedule.at = St.span_us (at_us + hold_us); kind = Schedule.Heal };
      ]
  in
  let loss =
    if Sim.Rng.int loss_rng 2 = 0 then []
    else begin
      let at_us = Sim.Rng.int loss_rng (window_us + 1) in
      let prob = 0.2 +. Sim.Rng.float loss_rng 0.7 in
      let len_us = 1_000 + Sim.Rng.int loss_rng window_us in
      [
        {
          Schedule.at = St.span_us at_us;
          kind = Schedule.Drop_window { prob; until = St.span_us (at_us + len_us) };
        };
      ]
    end
  in
  Schedule.make ~servers:n ~txs:config.txs ~spacing:config.spacing (crashes @ partition @ loss)

(* ---- storm search ---- *)

type counterexample = outcome E.counterexample

type result = {
  config : config;
  seed : int64;
  budget : int;
  runs : int;
  counterexample : counterexample option;
}

(* The explorer's storm search over sharded storms. Shrinking refuses
   candidates that change the server count: the shard layout is part of
   the configuration, not the schedule. *)
let storm ?(max_events = 4) ~seed ~budget config =
  let rng = Sim.Rng.create seed in
  let servers = config.shards * config.params.Workload.Params.servers in
  let runs, counterexample =
    E.search ~budget
      ~storm:(fun () -> random_schedule config rng ~max_events)
      ~admissible:(fun c -> c.Schedule.servers = servers)
      ~failed:(fun s -> (run config s).failed)
      ~replay:(run config) ()
  in
  { config; seed; budget; runs; counterexample }

(* ---- printing ---- *)

let pp_cross ppf c =
  Format.fprintf ppf
    "@[<v>cross-shard: %d acked (%d committed); lost parts %d, forbidden %d, broken atomicity %d@]"
    c.cv_cross_acked c.cv_cross_committed (List.length c.cv_lost_parts)
    (List.length c.cv_forbidden)
    (List.length c.cv_broken_atomicity)

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>%a@,%a" Schedule.pp o.schedule pp_cross o.cross;
  List.iter
    (fun v ->
      Format.fprintf ppf
        "@,shard %d: acked %d, lost %d, group_failed %b, durability %s, converged %b%s"
        v.sv_shard v.sv_report.Safety_checker.acked_commits
        (List.length v.sv_report.Safety_checker.lost)
        v.sv_report.Safety_checker.group_failed
        (if v.sv_durability.Check.Durability.clean then "clean" else "DIRTY")
        v.sv_converge.Convergence.converged
        (if v.sv_ok then "" else "  <- FAILED"))
    o.shard_verdicts;
  Format.fprintf ppf "@]"

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%d shards x %d servers, %d storms run (budget %d, seed %Ld)@,"
    r.config.shards r.config.params.Workload.Params.servers r.runs r.budget r.seed;
  (match r.counterexample with
  | None -> Format.fprintf ppf "no counterexample: every storm's verdicts were clean@]"
  | Some c ->
    Format.fprintf ppf
      "COUNTEREXAMPLE after %d runs (shrunk in %d rounds / %d re-runs):@,%a@]" r.runs
      c.E.shrink_rounds c.E.shrink_runs pp_outcome c.E.outcome)

let render_result r = Format.asprintf "%a" pp_result r
