open Groupsafe

let ms = Sim.Sim_time.span_ms
let sec = Sim.Sim_time.span_s

type predicate = Any_loss | Violation

type config = {
  technique : System.technique;
  predicate : predicate;
  params : Workload.Params.t;
  txs : int;
  spacing : Sim.Sim_time.span;
  horizon : Sim.Sim_time.span;
  quiescence : Sim.Sim_time.span;
  system_seed : int64;
  delays : bool;
  nemesis : bool;
  liveness : bool;
  storage : bool;
  max_decision_us : int option;
  tuning : Gcs.Bcast_tuning.t;
  mutate : System.t -> unit;
}

let default_params =
  {
    Workload.Params.table4 with
    Workload.Params.servers = 3;
    items = 64;
    clients_per_server = 1;
    hot_fraction = 0.;
    hot_items = 0;
  }

let default_config ?(predicate = Violation) ?(nemesis = false) ?(liveness = false)
    ?(storage = false) ?max_decision_us ?(tuning = Gcs.Bcast_tuning.default)
    ?(mutate = fun (_ : System.t) -> ()) technique =
  {
    technique;
    predicate;
    params = default_params;
    txs = 2;
    spacing = ms 5.;
    horizon = ms 60.;
    quiescence = sec 4.;
    system_seed = 7L;
    delays = (match technique with System.Dsm _ -> true | System.Lazy _ | System.Two_pc -> false);
    (* Liveness mode needs the full fault mix (partitions, loss windows)
       and the convergence probe, so it implies nemesis. *)
    nemesis = nemesis || liveness;
    liveness;
    storage;
    max_decision_us;
    tuning;
    mutate;
  }

type outcome = {
  schedule : Schedule.t;
  report : Safety_checker.report;
  converge : Convergence.verdict option;
  liveness : Liveness.verdict option;
  durability : Durability.verdict option;
  failed : bool;
  trace : string;
  highlights : string;
}

let span_mul s k = Sim.Sim_time.span_us (Sim.Sim_time.span_to_us s * k)

let highlight_kinds =
  [
    "submit"; "broadcast"; "respond"; "crash"; "recover"; "amnesia"; "cold_start";
    "state_transfer"; "recovered_local"; "deliver"; "logged"; "partition"; "heal";
    "drop_window"; "duplicate_next"; "torn_write"; "fsync_lie"; "corrupt_record"; "wal_wipe";
    "slow_disk"; "disk_full"; "disk_full_abort"; "wal_repair"; "skip_checksum";
  ]

let render_highlights sys =
  let entries =
    List.filter
      (fun e -> List.mem e.Sim.Trace.kind highlight_kinds)
      (Sim.Trace.entries (System.trace sys))
  in
  String.concat "\n" (List.map Sim.Trace.render_entry entries)

(* ---- the checker core over replica groups ----

   A deployment under test is an array of replica groups of [sps] servers
   each; global server [gi] is server [gi mod sps] of group [gi / sps].
   The explorer checks one group, [Shard.Shard_check] one group per shard:
   both drive their groups through [interpret], [repair] and [oracles]. *)

let interpret ~holds groups schedule =
  let sps = System.n_servers groups.(0) in
  let at g delay f = Sim.Engine.schedule (System.engine groups.(g)) ~delay f in
  (* Loss windows may overlap (two Drop_window events, or a shrink that
     moved one); an epoch guard keeps the close of an earlier window from
     cutting a later one short. Loss windows are guarded per group,
     slow-disk and disk-full windows per server. *)
  let drop_epoch = Array.make (Array.length groups) 0 in
  (* Which groups hold a cut at this point of the list: a later
     [Partition] replaces the cut, also on a group it names no member of. *)
  let cut_groups = Array.make (Array.length groups) false in
  let slow_epoch = Array.make (Array.length groups * sps) 0 in
  let full_epoch = Array.make (Array.length groups * sps) 0 in
  List.iter
    (fun e ->
      let on_server gi f =
        at (gi / sps) e.Schedule.at (fun () -> f groups.(gi / sps) (gi mod sps))
      in
      let on_groups f = Array.iteri (fun g sys -> at g e.Schedule.at (fun () -> f g sys)) groups in
      let window epochs k g until ~open_ ~close =
        epochs.(k) <- epochs.(k) + 1;
        let epoch = epochs.(k) in
        open_ ();
        at g
          (Sim.Sim_time.span_us
             (Int.max 0 (Sim.Sim_time.span_to_us until - Sim.Sim_time.span_to_us e.Schedule.at)))
          (fun () -> if epochs.(k) = epoch then close ())
      in
      match e.Schedule.kind with
      | Schedule.Crash gi -> on_server gi System.crash
      | Schedule.Recover gi -> on_server gi System.recover
      | Schedule.Delay (gi, d) -> on_server gi (fun _ _ -> holds.(gi) <- d)
      | Schedule.Partition cut ->
        (* Each group is cut along its own members. A group the partition
           names no member of loses any earlier cut: it gets the empty
           partition, which leaves blocked links alone, as a replacing
           cut does. *)
        Array.iteri
          (fun g sys ->
            let local members =
              match List.filter (fun gi -> gi / sps = g) members with
              | [] -> None
              | own -> Some (List.map (fun gi -> gi mod sps) own)
            in
            match List.filter_map local cut with
            | [] ->
              if cut_groups.(g) then begin
                cut_groups.(g) <- false;
                at g e.Schedule.at (fun () -> System.partition sys [])
              end
            | local_cut ->
              cut_groups.(g) <- true;
              at g e.Schedule.at (fun () -> System.partition sys local_cut))
          groups
      | Schedule.Heal ->
        Array.fill cut_groups 0 (Array.length groups) false;
        on_groups (fun _ sys -> System.heal sys)
      | Schedule.Drop_window { prob; until } ->
        on_groups (fun g sys ->
            window drop_epoch g g until
              ~open_:(fun () -> System.set_drop sys (Some prob))
              ~close:(fun () -> System.set_drop sys None))
      | Schedule.Duplicate_next gi -> on_server gi System.duplicate_next
      | Schedule.Torn_write gi ->
        on_server gi (fun sys l -> System.inject_storage_fault sys l Db.Db_engine.Torn_write)
      | Schedule.Fsync_lie gi ->
        on_server gi (fun sys l -> System.inject_storage_fault sys l Db.Db_engine.Fsync_lie)
      | Schedule.Corrupt_record gi ->
        on_server gi (fun sys l -> System.inject_storage_fault sys l Db.Db_engine.Corrupt_record)
      | Schedule.Slow_disk { server = gi; factor; until } ->
        on_server gi (fun sys l ->
            window slow_epoch gi (gi / sps) until
              ~open_:(fun () -> System.set_disk_slow sys l factor)
              ~close:(fun () -> System.set_disk_slow sys l 1.0))
      | Schedule.Disk_full { server = gi; until } ->
        on_server gi (fun sys l ->
            window full_epoch gi (gi / sps) until
              ~open_:(fun () -> System.set_disk_full sys l true)
              ~close:(fun () -> System.set_disk_full sys l false)))
    schedule.Schedule.events

(* Recover everyone and let the groups settle: a transaction the oracle
   still cannot find afterwards is permanently lost, not merely down with
   a crashed server. Network faults heal first — "lost" must mean lost on
   a connected network, not unreachable behind a partition. Storage
   windows close too: a disk left full (or 100x slow) past the horizon
   would wedge recovery itself, and "lost" must mean lost on a working
   disk, not stuck behind a parked append. Each repair is traced, so only
   the fault classes the schedule used are repaired. *)
let repair groups schedule =
  let uses p = List.exists (fun e -> p e.Schedule.kind) schedule.Schedule.events in
  let network =
    uses (function
      | Schedule.Partition _ | Schedule.Heal | Schedule.Drop_window _ | Schedule.Duplicate_next _ ->
        true
      | Schedule.Crash _ | Schedule.Recover _ | Schedule.Delay _ | Schedule.Torn_write _
      | Schedule.Fsync_lie _ | Schedule.Corrupt_record _ | Schedule.Slow_disk _
      | Schedule.Disk_full _ ->
        false)
  in
  let disks = uses (function Schedule.Slow_disk _ | Schedule.Disk_full _ -> true | _ -> false) in
  Array.iter
    (fun sys ->
      let n = System.n_servers sys in
      if network then begin
        System.heal sys;
        System.set_drop sys None
      end;
      if disks then
        for i = 0 to n - 1 do
          System.set_disk_slow sys i 1.0;
          System.set_disk_full sys i false
        done;
      for i = 0 to n - 1 do
        System.recover sys i
      done)
    groups

let oracles ?(trace = false) config ~delegate_crashed groups schedule =
  (* In storage mode the durability oracle subsumes the loss predicate: it
     applies the same Table-3 permissions and additionally excuses (while
     still reporting) losses where every replica's WAL was betrayed — no
     level survives total betrayal — and demands that recovery repaired
     every injected torn tail and detected every corruption. *)
  let safety =
    Array.mapi
      (fun g sys ->
        let report = Safety_checker.analyse sys in
        let delegate_crashed = delegate_crashed g in
        let durability =
          if config.storage then Some (Durability.certify ~delegate_crashed sys report) else None
        in
        let lost =
          match durability with
          | Some v -> not v.Durability.clean
          | None -> (
            match config.predicate with
            | Any_loss -> report.Safety_checker.lost <> []
            | Violation -> not (Safety_checker.losses_allowed report ~delegate_crashed))
        in
        (report, durability, lost))
      groups
  in
  (* In nemesis mode the oracle is two-part: loss-freedom above, then
     healing convergence — every acked update on every serving server and
     a fresh probe committing. Certified after every group's [analyse] so
     no probe can perturb a loss report; group [g]'s probe is transaction
     [1_000_000 + g]. *)
  let converge =
    Array.mapi
      (fun g sys ->
        if config.nemesis then Some (Convergence.certify ~probe_tx_id:(1_000_000 + g) sys)
        else None)
      groups
  in
  Array.mapi
    (fun g sys ->
      let report, durability, lost = safety.(g) in
      (* The liveness oracle is observation-only, so it stacks last: the
         convergence probe has already run (liveness implies nemesis) and
         lands in the submission books — a probe that never came back
         shows up as a wedged transaction here too. *)
      let liveness =
        if config.liveness then Some (Liveness.certify ?max_decision_us:config.max_decision_us sys)
        else None
      in
      {
        schedule;
        report;
        converge = converge.(g);
        liveness;
        durability;
        failed =
          lost
          || (match converge.(g) with Some v -> not v.Convergence.converged | None -> false)
          || (match liveness with Some v -> not v.Liveness.live | None -> false);
        trace = (if trace then Sim.Trace.render (System.trace sys) else "");
        highlights = (if trace then render_highlights sys else "");
      })
    groups

let run ?(trace = false) config schedule =
  let n = schedule.Schedule.servers in
  let params = { config.params with Workload.Params.servers = n } in
  (* Delivery-delay gates: a mutable hold per server, read by the gate on
     every delivery, written by the schedule's Delay events. Only servers
     the schedule actually delays get a gate, so delay-free schedules run
     the production (synchronous) delivery path. *)
  let holds = Array.make n Sim.Sim_time.span_zero in
  let gated = Array.make n false in
  List.iter
    (fun e -> match e.Schedule.kind with Schedule.Delay (i, _) -> gated.(i) <- true | _ -> ())
    schedule.Schedule.events;
  let delivery_delay i = if gated.(i) then Some (fun () -> holds.(i)) else None in
  let sys =
    System.create ~seed:config.system_seed ~params
      ~fd_config:Gcs.Failure_detector.light_config ~tuning:config.tuning ~trace_enabled:trace
      ~delivery_delay config.technique
  in
  (* Oracle-mutation hook: deliberate protocol breakage installed before
     any load, so mutation tests exercise the whole run. *)
  config.mutate sys;
  (* The fixed load: write-only transactions on disjoint items, delegates
     round-robin. A submission to a crashed delegate is skipped — the
     client could not have reached it. *)
  for i = 0 to schedule.Schedule.txs - 1 do
    let delegate = i mod n in
    let tx =
      Db.Transaction.make ~id:i ~client:0
        [ Db.Op.Write (2 * i, i + 1); Db.Op.Write ((2 * i) + 1, i + 1) ]
    in
    Sim.Engine.schedule (System.engine sys)
      ~delay:(span_mul schedule.Schedule.spacing i)
      (fun () -> if System.alive sys delegate then System.submit sys ~delegate tx)
  done;
  let groups = [| sys |] in
  interpret ~holds groups schedule;
  System.run_for sys config.horizon;
  repair groups schedule;
  System.run_for sys config.quiescence;
  let delegate_crashed _ tx_id =
    tx_id >= 0
    && tx_id < schedule.Schedule.txs
    && (System.history sys (tx_id mod n)).Gcs.Process_class.crashes <> []
  in
  (oracles ~trace config ~delegate_crashed groups schedule).(0)

(* ---- generation ---- *)

(* Slot-major, crashes before recoveries, servers in index order: the
   first size-n combination is "crash servers 0..n-1 at the first slot",
   so the canonical whole-group crash (Fig. 5) is the first schedule of
   its size the exhaustive pass tries. With [nemesis], each slot also
   offers one single-server partition per server, a heal, and one
   duplicate-next per server; loss windows are left to the random storms
   (their probability parameter has no natural small universe). *)
let universe ~slots ~servers ~recoveries ~nemesis =
  List.concat_map
    (fun slot ->
      List.init servers (fun i -> { Schedule.at = slot; kind = Schedule.Crash i })
      @ (if recoveries then
           List.init servers (fun i -> { Schedule.at = slot; kind = Schedule.Recover i })
         else [])
      @
      if nemesis then
        List.init servers (fun i -> { Schedule.at = slot; kind = Schedule.Partition [ [ i ] ] })
        @ [ { Schedule.at = slot; kind = Schedule.Heal } ]
        @ List.init servers (fun i -> { Schedule.at = slot; kind = Schedule.Duplicate_next i })
      else [])
    slots

let rec combinations k items =
  if k = 0 then Seq.return []
  else
    match items with
    | [] -> Seq.empty
    | x :: rest ->
      Seq.append
        (Seq.map (fun c -> x :: c) (combinations (k - 1) rest))
        (fun () -> combinations k rest ())

let exhaustive config ~slots ~max_events ~recoveries =
  let servers = config.params.Workload.Params.servers in
  let u = universe ~slots ~servers ~recoveries ~nemesis:config.nemesis in
  let sizes = Seq.init max_events (fun i -> i + 1) in
  Seq.concat_map
    (fun k ->
      Seq.map
        (fun events -> Schedule.make ~servers ~txs:config.txs ~spacing:config.spacing events)
        (combinations k u))
    sizes

let random_crashes config rng ~max_events =
  let servers = config.params.Workload.Params.servers in
  let window_us = Sim.Sim_time.span_to_us config.horizon * 3 / 4 in
  let n_events = 1 + Sim.Rng.int rng max_events in
  List.init n_events (fun _ ->
      let at = Sim.Sim_time.span_us (Sim.Rng.int rng (window_us + 1)) in
      let server = Sim.Rng.int rng servers in
      let kind =
        match Sim.Rng.int rng (if config.delays then 5 else 4) with
        | 0 | 1 -> Schedule.Crash server
        | 2 | 3 -> Schedule.Recover server
        | _ -> Schedule.Delay (server, Sim.Sim_time.span_us (100 + Sim.Rng.int rng 20_000))
      in
      { Schedule.at; kind })

(* Each fault family draws from its own stream split off [rng] in a fixed
   order, so adding (say) a duplication to a storm never perturbs where
   its partition falls — storms replay deterministically per seed and stay
   comparable across fault-mix changes. *)
let random_nemesis_events config rng =
  let servers = config.params.Workload.Params.servers in
  let window_us = Sim.Sim_time.span_to_us config.horizon * 3 / 4 in
  let partition_rng = Sim.Rng.split rng in
  let loss_rng = Sim.Rng.split rng in
  let dup_rng = Sim.Rng.split rng in
  let partition =
    if Sim.Rng.int partition_rng 2 = 0 then []
    else begin
      let at_us = Sim.Rng.int partition_rng (window_us + 1) in
      let size = 1 + Sim.Rng.int partition_rng (Int.max 1 ((servers - 1) / 2)) in
      let members =
        List.sort_uniq compare (List.init size (fun _ -> Sim.Rng.int partition_rng servers))
      in
      let hold_us = 1_000 + Sim.Rng.int partition_rng window_us in
      [
        { Schedule.at = Sim.Sim_time.span_us at_us; kind = Schedule.Partition [ members ] };
        { Schedule.at = Sim.Sim_time.span_us (at_us + hold_us); kind = Schedule.Heal };
      ]
    end
  in
  let loss =
    if Sim.Rng.int loss_rng 2 = 0 then []
    else begin
      let at_us = Sim.Rng.int loss_rng (window_us + 1) in
      let prob = 0.2 +. Sim.Rng.float loss_rng 0.7 in
      let len_us = 1_000 + Sim.Rng.int loss_rng window_us in
      [
        {
          Schedule.at = Sim.Sim_time.span_us at_us;
          kind = Schedule.Drop_window { prob; until = Sim.Sim_time.span_us (at_us + len_us) };
        };
      ]
    end
  in
  let dups =
    List.init (Sim.Rng.int dup_rng 3) (fun _ ->
        {
          Schedule.at = Sim.Sim_time.span_us (Sim.Rng.int dup_rng (window_us + 1));
          kind = Schedule.Duplicate_next (Sim.Rng.int dup_rng servers);
        })
  in
  partition @ loss @ dups

(* Storage-fault families, one split stream each in a fixed order (same
   determinism argument as [random_nemesis_events]). The destructive arms
   (torn write, lying fsync, bit-rot) only matter at a crash, so each one
   travels with its own crash + recover. Destructive arms all target a
   single victim server drawn once per storm; only the group-lie family
   betrays every disk at once. Partial multi-victim betrayal is outside
   the storm vocabulary on purpose: two betrayed disks plus one server
   that merely crashed at the wrong moment can destroy every copy of an
   acked record — a loss no protocol at any level can prevent, yet one
   the oracle's total-betrayal permission rightly refuses to excuse (see
   docs/CHECKING.md). The gray-failure windows (slow disk, disk full)
   target the same victim for the same reason: a window on an honest
   replica silently keeps its copy of a decision volatile (parked behind
   a full device, or a flush stretched past the next crash), so
   betraying the one replica that did persist it destroys every durable
   copy — partial betrayal again, just with a window standing in for the
   second bad disk. *)
let random_storage_events config rng =
  let servers = config.params.Workload.Params.servers in
  let window_us = Sim.Sim_time.span_to_us config.horizon * 3 / 4 in
  let victim_rng = Sim.Rng.split rng in
  let torn_rng = Sim.Rng.split rng in
  let lie_rng = Sim.Rng.split rng in
  let corrupt_rng = Sim.Rng.split rng in
  let slow_rng = Sim.Rng.split rng in
  let full_rng = Sim.Rng.split rng in
  let victim = Sim.Rng.int victim_rng servers in
  let armed_crash arm_rng kind_of =
    let at_us = Sim.Rng.int arm_rng (window_us + 1) in
    let s = victim in
    let crash_us = at_us + 500 + Sim.Rng.int arm_rng 8_000 in
    let recover_us = crash_us + 1_000 + Sim.Rng.int arm_rng 10_000 in
    [
      { Schedule.at = Sim.Sim_time.span_us at_us; kind = kind_of s };
      { Schedule.at = Sim.Sim_time.span_us crash_us; kind = Schedule.Crash s };
      { Schedule.at = Sim.Sim_time.span_us recover_us; kind = Schedule.Recover s };
    ]
  in
  let torn =
    if Sim.Rng.int torn_rng 2 = 0 then []
    else armed_crash torn_rng (fun s -> Schedule.Torn_write s)
  in
  let lies =
    match Sim.Rng.int lie_rng 4 with
    | 0 ->
      (* Group lie: every disk lies, then the whole group crashes — the
         amnesia scenario rebuilt from the new fault vocabulary. *)
      let at_us = Sim.Rng.int lie_rng (window_us + 1) in
      let crash_us = at_us + 500 + Sim.Rng.int lie_rng 8_000 in
      let recover_us = crash_us + 1_000 + Sim.Rng.int lie_rng 10_000 in
      List.concat
        (List.init servers (fun s ->
             [
               { Schedule.at = Sim.Sim_time.span_us at_us; kind = Schedule.Fsync_lie s };
               { Schedule.at = Sim.Sim_time.span_us crash_us; kind = Schedule.Crash s };
               { Schedule.at = Sim.Sim_time.span_us recover_us; kind = Schedule.Recover s };
             ]))
    | 1 | 2 -> armed_crash lie_rng (fun s -> Schedule.Fsync_lie s)
    | _ -> []
  in
  let corrupt =
    if Sim.Rng.int corrupt_rng 2 = 0 then []
    else armed_crash corrupt_rng (fun s -> Schedule.Corrupt_record s)
  in
  let window mk_kind w_rng =
    if Sim.Rng.int w_rng 2 = 0 then []
    else begin
      let at_us = Sim.Rng.int w_rng (window_us + 1) in
      let len_us = 1_000 + Sim.Rng.int w_rng window_us in
      let s = victim in
      [
        {
          Schedule.at = Sim.Sim_time.span_us at_us;
          kind = mk_kind s w_rng (Sim.Sim_time.span_us (at_us + len_us));
        };
      ]
    end
  in
  let slow =
    window
      (fun s w_rng until ->
        Schedule.Slow_disk { server = s; factor = float_of_int (10 + Sim.Rng.int w_rng 91); until })
      slow_rng
  in
  let full = window (fun s _ until -> Schedule.Disk_full { server = s; until }) full_rng in
  torn @ lies @ corrupt @ slow @ full

let random_schedule config rng ~max_events =
  let servers = config.params.Workload.Params.servers in
  if not (config.nemesis || config.storage) then
    Schedule.make ~servers ~txs:config.txs ~spacing:config.spacing
      (random_crashes config rng ~max_events)
  else begin
    (* Crash stream first, also split, so the crash pattern of storm [k]
       matches the crash-only explorer's storm [k] structure. *)
    let crash_rng = Sim.Rng.split rng in
    let crashes = random_crashes config crash_rng ~max_events in
    let faults = if config.nemesis then random_nemesis_events config rng else [] in
    let storage = if config.storage then random_storage_events config rng else [] in
    Schedule.make ~servers ~txs:config.txs ~spacing:config.spacing (crashes @ faults @ storage)
  end

(* ---- fair storms (liveness mode) ---- *)

(* Deterministic repair of an unfair candidate: discard events the run
   would never fire, clamp loss windows and delays to the horizon, then
   append the missing repairs (a recovery per still-down server, a heal
   for a dangling partition) at the horizon. The result is always fair,
   and reuses as much of the rejected candidate as possible so the storm
   still probes the fault pattern the RNG drew. *)
let repair_fair ~horizon t =
  let horizon_us = Sim.Sim_time.span_to_us horizon in
  let clamp s = if Sim.Sim_time.span_to_us s > horizon_us then horizon else s in
  let events =
    List.filter_map
      (fun e ->
        if Sim.Sim_time.span_to_us e.Schedule.at > horizon_us then None
        else
          match e.Schedule.kind with
          | Schedule.Drop_window { prob; until } ->
            Some { e with Schedule.kind = Schedule.Drop_window { prob; until = clamp until } }
          | Schedule.Delay (i, d) ->
            Some { e with Schedule.kind = Schedule.Delay (i, clamp d) }
          | Schedule.Slow_disk { server; factor; until } ->
            Some { e with Schedule.kind = Schedule.Slow_disk { server; factor; until = clamp until } }
          | Schedule.Disk_full { server; until } ->
            Some { e with Schedule.kind = Schedule.Disk_full { server; until = clamp until } }
          | Schedule.Crash _ | Schedule.Recover _ | Schedule.Partition _ | Schedule.Heal
          | Schedule.Duplicate_next _ | Schedule.Torn_write _ | Schedule.Fsync_lie _
          | Schedule.Corrupt_record _ ->
            Some e)
      t.Schedule.events
  in
  let down = ref [] in
  let open_partition = ref false in
  List.iter
    (fun e ->
      match e.Schedule.kind with
      | Schedule.Crash i -> if not (List.mem i !down) then down := i :: !down
      | Schedule.Recover i -> down := List.filter (fun j -> j <> i) !down
      | Schedule.Partition _ -> open_partition := true
      | Schedule.Heal -> open_partition := false
      | Schedule.Delay _ | Schedule.Drop_window _ | Schedule.Duplicate_next _
      | Schedule.Torn_write _ | Schedule.Fsync_lie _ | Schedule.Corrupt_record _
      | Schedule.Slow_disk _ | Schedule.Disk_full _ ->
        ())
    events;
  let repairs =
    List.map
      (fun i -> { Schedule.at = horizon; kind = Schedule.Recover i })
      (List.sort Int.compare !down)
    @ if !open_partition then [ { Schedule.at = horizon; kind = Schedule.Heal } ] else []
  in
  Schedule.make ~servers:t.Schedule.servers ~txs:t.Schedule.txs ~spacing:t.Schedule.spacing
    (events @ repairs)

(* Draw storm candidates until one is fair, telling [note] why each
   rejected candidate was unfair (the storm summary prints the tally —
   silent regeneration would hide how much of the search space the
   fairness constraint cuts away). After a few rejections, repair the
   last candidate instead of drawing again, so a pathological RNG stretch
   cannot stall generation. *)
let max_fair_attempts = 3

let random_fair_schedule config rng ~max_events ~note =
  let rec attempt n =
    let candidate = random_schedule config rng ~max_events in
    match Schedule.fairness_violation ~horizon:config.horizon candidate with
    | None -> candidate
    | Some reason ->
      note reason;
      if n >= max_fair_attempts then repair_fair ~horizon:config.horizon candidate
      else attempt (n + 1)
  in
  attempt 1

(* ---- search ---- *)

type phase = Exhaustive | Random_storm

type 'o counterexample = {
  original : Schedule.t;
  found_in : phase;
  runs_to_find : int;
  shrunk : Schedule.t;
  shrink_rounds : int;
  shrink_runs : int;
  outcome : 'o;
}

type result = {
  config : config;
  seed : int64;
  budget : int;
  runs : int;
  rejections : (string * int) list;
  counterexample : outcome counterexample option;
}

(* Greedy fixpoint: keep the first admissible shrink candidate that still
   fails, restart from it, stop when none of them do. Biased by the
   candidate order of [Schedule.shrink] towards structurally smaller
   schedules. Inadmissible candidates are refused before they run. *)
let shrink ~admissible ~failed schedule =
  let shrink_runs = ref 0 in
  let rec fix schedule rounds =
    match
      List.find_opt
        (fun candidate ->
          admissible candidate
          && begin
               incr shrink_runs;
               failed candidate
             end)
        (Schedule.shrink schedule)
    with
    | Some smaller -> fix smaller (rounds + 1)
    | None -> (schedule, rounds)
  in
  let shrunk, rounds = fix schedule 0 in
  (shrunk, rounds, !shrink_runs)

let search ?(exhaustive = Seq.empty) ~storm ~admissible ~failed ~replay ~budget () =
  let runs = ref 0 in
  let found = ref None in
  (try
     Seq.iter
       (fun schedule ->
         if !runs >= budget then raise Exit;
         incr runs;
         if failed schedule then begin
           found := Some (Exhaustive, schedule);
           raise Exit
         end)
       exhaustive
   with Exit -> ());
  (* Random storms, fanned out over the domain pool. Every storm schedule
     is generated up front on this domain — [Array.init] applies [storm]
     in index order, so storm [k] is the same schedule a sequential loop
     would have produced — and the replays are joined by index, with the
     failure of the lowest index winning. Verdicts, counterexamples and
     the reported run counts are therefore byte-identical at any worker
     count. *)
  if !found = None && !runs < budget then begin
    let remaining = budget - !runs in
    let storms = Array.init remaining (fun _ -> storm ()) in
    let jobs = Parallel.Domain_pool.default_jobs () in
    let batch = Int.max 1 (jobs * 2) in
    let base = ref 0 in
    while !base < remaining && !found = None do
      let n = Int.min batch (remaining - !base) in
      let here = !base in
      let failures =
        Parallel.Domain_pool.map
          ((fun k -> failed storms.(here + k))
          [@lint.allow "T-domain-escape"
            "read-only sharing: [storms] is fully written before the fan-out \
             and each worker reads a distinct index"])
          (List.init n Fun.id)
      in
      List.iteri
        (fun k hit ->
          if hit && !found = None then begin
            found := Some (Random_storm, storms.(here + k));
            runs := !runs + k + 1
          end)
        failures;
      if !found = None then runs := !runs + n;
      base := here + n
    done
  end;
  (* Shrinking stays sequential: each candidate depends on the previous
     accept. The shrunk schedule is replayed once more for the report. *)
  let counterexample =
    Option.map
      (fun (found_in, original) ->
        let shrunk, shrink_rounds, shrink_runs = shrink ~admissible ~failed original in
        {
          original;
          found_in;
          runs_to_find = !runs;
          shrunk;
          shrink_rounds;
          shrink_runs;
          outcome = replay shrunk;
        })
      !found
  in
  (!runs, counterexample)

(* The instants the exhaustive pass places its events at. *)
let exhaustive_slots = [ ms 2.; ms 30. ]

let explore ?(max_exhaustive_events = 3) ?(max_random_events = 4) ~seed ~budget (config : config)
    =
  let rng = Sim.Rng.create seed in
  (* Fairness-rejection tally, reason -> count, in first-seen order.
     Candidates are generated sequentially on this domain, so the tally is
     byte-identical at any worker count. *)
  let rejections = ref [] in
  let note_rejection reason =
    match List.assoc_opt reason !rejections with
    | Some n -> rejections := List.map (fun (r, c) -> if r = reason then (r, n + 1) else (r, c)) !rejections
    | None -> rejections := !rejections @ [ (reason, 1) ]
  in
  (* The bounded-exhaustive universe is crash-heavy and almost entirely
     unfair (lone crashes, lone partitions); liveness is a storm mode.
     Storage mode is a storm mode too: destructive arms only matter
     paired with a crash, a pattern the combination universe lacks. *)
  let exhaustive =
    if config.liveness || config.storage then Seq.empty
    else
      exhaustive config ~slots:exhaustive_slots ~max_events:max_exhaustive_events
        ~recoveries:true
  in
  let storm () =
    if config.liveness then
      random_fair_schedule config rng ~max_events:max_random_events ~note:note_rejection
    else random_schedule config rng ~max_events:max_random_events
  in
  (* In liveness mode, shrink candidates that would break fairness are
     refused: dropping a lone Heal (keeping its partition) could "shrink"
     into an unfair schedule that wedges any correct protocol, and a
     liveness counterexample that is not fair is vacuous. *)
  let runs, counterexample =
    search ~exhaustive ~storm ~budget
      ~admissible:(fun c -> (not config.liveness) || Schedule.fair ~horizon:config.horizon c)
      ~failed:(fun s -> (run config s).failed)
      ~replay:(run ~trace:true config) ()
  in
  { config; seed; budget; runs; rejections = !rejections; counterexample }

(* ---- directed scenarios ---- *)

(* Every directed scenario starts from the same system: built from the
   config, mutated, then settled for 1 s (first election, first empty
   heartbeat rounds). *)
let settled config =
  let sys =
    System.create ~seed:config.system_seed ~params:config.params
      ~fd_config:Gcs.Failure_detector.light_config ~tuning:config.tuning config.technique
  in
  config.mutate sys;
  System.run_for sys (sec 1.);
  sys

(* ---- directed scenario: the minority must stall, not diverge ---- *)

type stall_outcome = {
  minority : int list;
  minority_acked_during : int;
  majority_committed_during : bool;
  minority_applied_during : bool;
  resumed : bool;
  verdict : Convergence.verdict;
  ok : bool;
}

(* How long the minority stays cut off. *)
let stall_cut = sec 2.

let minority_stall config =
  let n = config.params.Workload.Params.servers in
  if n < 3 then invalid_arg "Explorer.minority_stall: needs at least 3 servers";
  (* Settle (leader election), cut S0 off, then offer work to both sides:
     uniform delivery needs a quorum, so the minority delegate must sit on
     its transaction while the majority keeps committing. *)
  let sys = settled config in
  let minority = [ 0 ] in
  let majority = List.init (n - 1) (fun i -> i + 1) in
  System.partition sys [ minority; majority ];
  let minority_acks = ref 0 in
  System.submit sys ~delegate:0
    ~on_response:(fun _ -> incr minority_acks)
    (Db.Transaction.make ~id:0 ~client:0 [ Db.Op.Write (0, 1) ]);
  let majority_committed = ref false in
  System.submit sys ~delegate:1
    ~on_response:(fun o -> if o = Db.Testable_tx.Committed then majority_committed := true)
    (Db.Transaction.make ~id:1 ~client:0 [ Db.Op.Write (1, 2) ]);
  System.run_for sys stall_cut;
  let minority_acked_during = !minority_acks in
  let majority_committed_during = !majority_committed in
  let minority_applied_during =
    System.committed_on sys ~server:0 0 || System.committed_on sys ~server:0 1
  in
  System.heal sys;
  System.run_for sys config.quiescence;
  let resumed =
    !minority_acks > 0
    && List.for_all (fun s -> System.committed_on sys ~server:s 0) (List.init n Fun.id)
  in
  let verdict = Convergence.certify sys in
  {
    minority;
    minority_acked_during;
    majority_committed_during;
    minority_applied_during;
    resumed;
    verdict;
    ok =
      minority_acked_during = 0
      && (not minority_applied_during)
      && majority_committed_during && resumed && verdict.Convergence.converged;
  }

(* ---- directed scenario: kill leaders mid-broadcast, takeover must follow ---- *)

type takeover_outcome = {
  kills : int;
  killed : int list;
  takeovers : int;
  submitted_txs : int;
  liveness : Liveness.verdict;
  converge : Convergence.verdict;
  ok : bool;
}

let takeover_kills = 3

(* The takeover family hunts the wedge the storms reach only by luck:
   every round finds the current ordering leader, puts a transaction in
   flight through a *different* delegate, kills the leader mid-broadcast,
   and demands a successor before reviving it. The delegate stays up
   throughout, so the liveness oracle owes a decision for every round's
   transaction — a successor that never re-drives the dead leader's
   in-flight slots wedges them all. *)
let leader_takeover config =
  let n = config.params.Workload.Params.servers in
  if n < 3 then invalid_arg "Explorer.leader_takeover: needs at least 3 servers";
  let sys = settled config in
  let killed = ref [] in
  let takeovers = ref 0 in
  let submitted = ref 0 in
  for round = 0 to takeover_kills - 1 do
    match System.leaders sys with
    | [] ->
      (* No established leader right now (previous revival still
         settling); give the election time instead of killing blind. *)
      System.run_for sys (sec 1.)
    | leader :: _ ->
      let delegate = (leader + 1) mod n in
      incr submitted;
      System.submit sys ~delegate
        (Db.Transaction.make ~id:round ~client:0 [ Db.Op.Write (round mod 8, round + 1) ]);
      (* Half a millisecond: the writeset broadcast is on the wire or in
         the leader's in-flight table, but nothing is decided yet. *)
      System.run_for sys (ms 0.5);
      System.crash sys leader;
      killed := leader :: !killed;
      (* Detector timeout, new prepare phase, re-driven slots. *)
      System.run_for sys (sec 2.);
      (match System.leaders sys with
      | successor :: _ when successor <> leader -> incr takeovers
      | _ -> ());
      System.recover sys leader;
      System.run_for sys (sec 1.)
  done;
  System.run_for sys config.quiescence;
  let converge = Convergence.certify sys in
  let liveness = Liveness.certify sys in
  {
    kills = takeover_kills;
    killed = List.rev !killed;
    takeovers = !takeovers;
    submitted_txs = !submitted;
    liveness;
    converge;
    ok =
      !takeovers = !submitted && !submitted = takeover_kills && liveness.Liveness.live
      && converge.Convergence.converged;
  }

(* ---- directed scenario: tear the leader's WAL tail, recovery must repair ---- *)

type torn_outcome = {
  t_rounds : int;
  t_fired : int;
  t_repaired : int;
  t_reports : int;  (** recoveries whose repair report was non-empty. *)
  t_verdict : Durability.verdict;
  t_ok : bool;
}

let torn_rounds = 3

(* Every round arms a torn write on the current ordering leader (the
   server whose WAL tail is hottest), crashes it once the round's commit
   record is durable, and demands that the recovery scan found and
   truncated the half-written tail frame — a non-empty repair report per
   round, and the durability oracle's repaired = scanned bookkeeping
   intact at the end. *)
let torn_leader_tail config =
  let n = config.params.Workload.Params.servers in
  if n < 3 then invalid_arg "Explorer.torn_leader_tail: needs at least 3 servers";
  let sys = settled config in
  let reports = ref 0 in
  for round = 0 to torn_rounds - 1 do
    let victim = match System.leaders sys with l :: _ -> l | [] -> round mod n in
    System.submit sys ~delegate:victim
      (Db.Transaction.make ~id:round ~client:0 [ Db.Op.Write (round mod 8, round + 1) ]);
    (* Long enough for the decision and the group-commit flush: the torn
       write needs a durable tail record to tear. *)
    System.run_for sys (ms 100.);
    System.inject_storage_fault sys victim Db.Db_engine.Torn_write;
    System.crash sys victim;
    System.run_for sys (ms 100.);
    System.recover sys victim;
    (* The recovery scan ran synchronously inside [recover]; its report is
       still the latest one (a later state transfer never re-scans). *)
    (match System.last_repair sys victim with
    | Some r when r.Db.Db_engine.repairs <> [] -> incr reports
    | Some _ | None -> ());
    System.run_for sys (sec 2.)
  done;
  System.run_for sys config.quiescence;
  let report = Safety_checker.analyse sys in
  let verdict = Durability.certify ~delegate_crashed:(fun _ -> true) sys report in
  {
    t_rounds = torn_rounds;
    t_fired = verdict.Durability.torn_fired;
    t_repaired = verdict.Durability.torn_repaired;
    t_reports = !reports;
    t_verdict = verdict;
    t_ok =
      verdict.Durability.torn_fired = torn_rounds
      && verdict.Durability.torn_repaired = torn_rounds
      && !reports = torn_rounds && verdict.Durability.clean;
  }

(* ---- directed scenario: every disk lies, then the whole group crashes ---- *)

type lie_outcome = {
  f_level : Safety.level;
  f_acked : int;
  f_lost : int;
  f_lies_dropped : int;
  f_verdict : Durability.verdict;
  f_ok : bool;
}

let lie_txs = 2

(* The lattice's limit case: every replica's fsync lies before the load
   arrives, so every commit record is acked-but-volatile, and the whole
   group then crashes. No level survives — the acked transactions are
   gone everywhere. What distinguishes the levels is the classification:
   1-safe's loss was already permitted by its delegate crash (the paper's
   flagged-but-allowed window), group-safe's by the group failure, and
   2-safe's only by the total storage betrayal — so the oracle must
   report the loss yet stay clean for all of them. *)
let fsync_lie_group_crash config =
  let n = config.params.Workload.Params.servers in
  let sys = settled config in
  for i = 0 to n - 1 do
    System.inject_storage_fault sys i Db.Db_engine.Fsync_lie
  done;
  for i = 0 to lie_txs - 1 do
    System.submit sys ~delegate:0 (Db.Transaction.make ~id:i ~client:0 [ Db.Op.Write (i, i + 1) ])
  done;
  (* Acks, propagation to every replica, and the lying flushes all land. *)
  System.run_for sys (sec 2.);
  for i = 0 to n - 1 do
    System.crash sys i
  done;
  System.run_for sys (ms 100.);
  for i = 0 to n - 1 do
    System.recover sys i
  done;
  System.run_for sys config.quiescence;
  let report = Safety_checker.analyse sys in
  let verdict = Durability.certify ~delegate_crashed:(fun _ -> true) sys report in
  {
    f_level = verdict.Durability.level;
    f_acked = verdict.Durability.acked_commits;
    f_lost = List.length verdict.Durability.lost;
    f_lies_dropped = verdict.Durability.lies_dropped;
    f_verdict = verdict;
    (* Every level must lose here (the records were volatile everywhere)
       and every level's verdict must stay clean (the loss is permitted,
       by delegate crash, group failure or total betrayal). *)
    f_ok =
      verdict.Durability.acked_commits > 0
      && List.length verdict.Durability.lost > 0
      && verdict.Durability.clean;
  }

(* ---- printing ---- *)

let pp_phase ppf = function
  | Exhaustive -> Format.pp_print_string ppf "exhaustive"
  | Random_storm -> Format.pp_print_string ppf "random-storm"

let pp_predicate ppf = function
  | Any_loss -> Format.pp_print_string ppf "any acknowledged loss"
  | Violation -> Format.pp_print_string ppf "loss forbidden by the advertised level"

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%s, predicate: %a, seed %Ld, budget %d@,"
    (System.technique_name r.config.technique)
    pp_predicate r.config.predicate r.seed r.budget;
  (match r.rejections with
  | [] -> ()
  | tally ->
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 tally in
    Format.fprintf ppf "  %d unfair storm candidate(s) rejected:@," total;
    List.iter
      (fun (reason, count) -> Format.fprintf ppf "    %dx %s@," count reason)
      tally);
  match r.counterexample with
  | None ->
    Format.fprintf ppf "  no counterexample in %d schedules@]" r.runs
  | Some c ->
    Format.fprintf ppf
      "  counterexample after %d schedules (%a phase), shrunk %d -> %d events in %d rounds (%d \
       re-runs)@,"
      c.runs_to_find pp_phase c.found_in
      (Schedule.event_count c.original)
      (Schedule.event_count c.shrunk)
      c.shrink_rounds c.shrink_runs;
    Format.fprintf ppf "  @[<v>original: %a@]@," Schedule.pp c.original;
    Format.fprintf ppf "  @[<v>shrunk:   %a@]@," Schedule.pp c.shrunk;
    Format.fprintf ppf "  @[<v>oracle:   %a@]@," Safety_checker.pp_report c.outcome.report;
    (match c.outcome.converge with
    | Some v -> Format.fprintf ppf "  @[<v>healing:  %a@]@," Convergence.pp v
    | None -> ());
    (match c.outcome.liveness with
    | Some v -> Format.fprintf ppf "  @[<v>liveness: %a@]@," Liveness.pp v
    | None -> ());
    (match c.outcome.durability with
    | Some v -> Format.fprintf ppf "  @[<v>%a@]@," Durability.pp v
    | None -> ());
    Format.fprintf ppf "  trace of the shrunk run (protocol events):@,";
    List.iter
      (fun line -> Format.fprintf ppf "    %s@," line)
      (String.split_on_char '\n' c.outcome.highlights);
    Format.fprintf ppf "@]"

let pp_stall ppf s =
  Format.fprintf ppf
    "@[<v>minority {%s}: %s during the cut (%d ack(s), applied: %b)@ majority committed during \
     the cut: %b@ minority resumed after heal: %b@ %a@ verdict: %s@]"
    (String.concat " " (List.map (fun i -> "S" ^ string_of_int i) s.minority))
    (if s.minority_acked_during = 0 && not s.minority_applied_during then "stalled"
     else "did not stall")
    s.minority_acked_during s.minority_applied_during s.majority_committed_during s.resumed
    Convergence.pp s.verdict
    (if s.ok then "stalled, no divergence, converged after heal" else "FAILED")

let pp_torn ppf t =
  Format.fprintf ppf
    "@[<v>%d round(s): %d torn write(s) fired, %d repaired, %d non-empty repair report(s)@ %a@ \
     verdict: %s@]"
    t.t_rounds t.t_fired t.t_repaired t.t_reports Durability.pp t.t_verdict
    (if t.t_ok then "every torn tail repaired on recovery" else "FAILED")

let pp_lie ppf l =
  Format.fprintf ppf
    "@[<v>level %s: %d acked commit(s), %d lost, %d lying record(s) dropped at crash@ %a@ \
     verdict: %s@]"
    (Safety.to_string l.f_level) l.f_acked l.f_lost l.f_lies_dropped Durability.pp l.f_verdict
    (if l.f_ok then "loss demonstrated and correctly classified" else "FAILED")

let pp_takeover ppf t =
  Format.fprintf ppf
    "@[<v>killed %d leader(s) {%s}, %d takeover(s), %d transaction(s) in flight@ %a@ %a@ \
     verdict: %s@]"
    (List.length t.killed)
    (String.concat " " (List.map (fun i -> "S" ^ string_of_int i) t.killed))
    t.takeovers t.submitted_txs Liveness.pp t.liveness Convergence.pp t.converge
    (if t.ok then "every kill handed over, every transaction decided"
     else "FAILED")

let render_result r = Format.asprintf "%a" pp_result r
