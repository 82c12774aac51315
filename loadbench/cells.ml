(* One cell: one simulated deployment at one offered rate and seed, driven
   through the layers' public entry points. Arrivals are open-loop Poisson
   on the virtual clock, so the generator is never late and a submission's
   response time runs from the instant it was due. A cell warms up, measures
   the transactions submitted in its measured window, stops the arrivals,
   drains, and then runs the oracles. *)

[@@@lint.allow "D-wallclock" "the benchmark measures real elapsed time by design"]

open Groupsafe

let sec = Sim.Sim_time.span_s
let ms = Sim.Sim_time.span_ms
let group_safe = System.Dsm Dsm_replica.Group_safe_mode

type config = {
  workload : Spec.workload;
  scale : Spec.scale;
  rung : int;
  seed : int64;
  samplers : bool;
  obs_trace : bool;
  jobs : int;
  barriers : bool;  (** time the sharded exchange barriers. *)
}

type result = {
  rung : int;
  submitted : int;  (** every submission, probes included. *)
  offered : int;  (** submissions in the measured window. *)
  commits : int;  (** of those, committed. *)
  aborts : int;
  within_limit : int;  (** committed within the workload's latency limit. *)
  latencies : float array;  (** committed measured submissions, ms, in answer order. *)
  cross_latencies : float array;  (** the cross-shard subset. *)
  failed : int;  (** unanswered + lost + failed probes + leaderless kills. *)
  unanswered : int;
  probes_ms : float list;  (** leader-kill probe responses. *)
  takeovers_ms : float list;
  kills : int;
  arrivals : int;
  expected_arrivals : float;
  all_commits : int;  (** every committed transaction of the run. *)
  events : int;
  messages : int;
  minor_words : float;
  run_s : float;
      (** wall clock from the first event to the oracles' verdict, the
          reference slices excluded. *)
  registry : Obs.Registry.t;
  windows : int;
  window_wall_us : Obs.Histogram.t;
  trace_events : Obs.Tracer.event list;
}

(* Every domain's minor-heap allocation so far, the reference slices' own
   excluded. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words -. Reference.words ()

(* Advance [run_for] to absolute virtual instant [target] in chunks of at
   most one virtual second, one span each, with the host-speed reference
   sampled between chunks. *)
let advance ~now ~run_for target =
  let rec go () =
    let left = Sim.Sim_time.to_us target - Sim.Sim_time.to_us (now ()) in
    if left > 0 then begin
      Spans.span ~layer:"sim" "run_for 1s" (fun () ->
          run_for (Sim.Sim_time.span_us (min left 1_000_000)));
      Reference.tick ();
      go ()
    end
  in
  go ()

(* Wall time since [t0] minus what the reference slices took meanwhile. *)
let elapsed ~t0 ~spent0 = Unix.gettimeofday () -. t0 -. (Reference.spent () -. spent0)

(* Measured-window books shared by both shapes: [sub_at] maps each
   workload submission to its instant, acknowledgements are folded in. *)
type books = {
  mutable b_offered : int;
  mutable b_commits : int;
  mutable b_aborts : int;
  mutable b_within : int;
  mutable b_lat : float list;
  mutable b_cross_lat : float list;
}

let measure ~limit_ms ~window_lo ~window_hi ~sub_at acks =
  let b = { b_offered = 0; b_commits = 0; b_aborts = 0; b_within = 0; b_lat = []; b_cross_lat = [] } in
  let in_window at = Sim.Sim_time.(at >= window_lo && at < window_hi) in
  List.iter (fun (_, at) -> if in_window at then b.b_offered <- b.b_offered + 1) sub_at;
  let tbl = Hashtbl.create (List.length sub_at) in
  List.iter (fun (id, at) -> Hashtbl.replace tbl id at) sub_at;
  List.iter
    (fun (tx, outcome, answered, cross) ->
      match Hashtbl.find_opt tbl tx with
      | Some at when in_window at -> (
        match outcome with
        | Db.Testable_tx.Aborted -> b.b_aborts <- b.b_aborts + 1
        | Db.Testable_tx.Committed ->
          let l = Sim.Sim_time.span_to_ms (Sim.Sim_time.diff answered at) in
          b.b_commits <- b.b_commits + 1;
          if l <= limit_ms then b.b_within <- b.b_within + 1;
          b.b_lat <- l :: b.b_lat;
          if cross then b.b_cross_lat <- l :: b.b_cross_lat)
      | Some _ | None -> ())
    acks;
  b

let committed_count acks =
  List.fold_left
    (fun n (_, o, _, _) -> match o with Db.Testable_tx.Committed -> n + 1 | Aborted -> n)
    0 acks

(* Ids at or above this are leader-kill probes, never generator ids. *)
let probe_base = 1_000_000_000

(* ---- one replica group ---- *)

let build_single (c : config) ~params ~tuning ~fd =
  let rate = List.nth c.workload.Spec.rungs c.rung in
  Spans.span ~layer:"core" "System.create" (fun () ->
      let sys =
        System.create ~seed:c.seed ~params ~fd_config:fd ~tuning ~trace_enabled:false
          ~obs_trace:c.obs_trace group_safe
      in
      if c.samplers then System.attach_obs_samplers sys;
      let engine = System.engine sys in
      let rng = Sim.Rng.split (Sim.Engine.rng engine) in
      let generator = Workload.Generator.create params (Sim.Rng.split rng) in
      let n = params.Workload.Params.servers in
      let per_server = params.Workload.Params.clients_per_server in
      (* Load re-routes around dead servers, so it keeps arriving while
         no leader exists. *)
      let submit () =
        match List.filter (System.serving sys) (List.init n Fun.id) with
        | [] -> ()
        | serving ->
          let delegate = List.nth serving (Sim.Rng.int rng (List.length serving)) in
          let client = (delegate * per_server) + Sim.Rng.int rng per_server in
          System.submit sys ~delegate (Workload.Generator.next generator ~client)
      in
      let arrival =
        Workload.Arrival.open_poisson engine ~rng:(Sim.Rng.split rng) ~rate_tps:rate submit
      in
      (sys, rng, arrival))

let run_single (c : config) ~params ~tuning ~fd ~faults =
  let w = c.workload and s = c.scale in
  let rate = List.nth w.Spec.rungs c.rung in
  let sys, rng, arrival = build_single c ~params ~tuning ~fd in
  let n = params.Workload.Params.servers in
  let now () = System.now sys in
  let run_for = System.run_for sys in
  let t0 = Unix.gettimeofday () and spent0 = Reference.spent () in
  let e0 = Sim.Engine.global_executed () and w0 = minor_words () in
  let window_lo = Sim.Sim_time.add (now ()) (sec s.warmup_s) in
  let window_hi = Sim.Sim_time.add window_lo (sec s.measure_s) in
  advance ~now ~run_for window_lo;
  (* Leader kills, evenly spread over the measured window: at each, a
     single-write probe goes to a surviving delegate and the leader dies in
     the same instant; the takeover is polled every virtual millisecond and
     the dead leader comes back two seconds later. *)
  let kills = if faults then s.Spec.kills else 0 in
  let probes = ref [] and takeovers = ref [] and leaderless = ref 0 in
  let period = s.measure_s /. float_of_int (max 1 kills) in
  for k = 0 to kills - 1 do
    advance ~now ~run_for
      (Sim.Sim_time.add window_lo (sec ((float_of_int k +. 0.25) *. period)));
    match System.leaders sys with
    | [] -> incr leaderless
    | leader :: _ ->
      let killed_at = now () in
      let id = probe_base + k in
      let answer = ref None in
      System.submit sys ~delegate:((leader + 1) mod n)
        ~on_response:(fun o -> answer := Some (o, now ()))
        (Db.Transaction.make ~id ~client:0 [ Db.Op.Write (Sim.Rng.int rng params.Workload.Params.items, id) ]);
      System.crash sys leader;
      Spans.span ~layer:"gcs" "takeover poll" (fun () ->
          let rec poll steps =
            if steps >= 5000 then incr leaderless
            else
              match List.filter (fun l -> l <> leader) (System.leaders sys) with
              | _ :: _ ->
                takeovers := Sim.Sim_time.span_to_ms (Sim.Sim_time.diff (now ()) killed_at) :: !takeovers
              | [] ->
                run_for (ms 1.);
                poll (steps + 1)
          in
          poll 0);
      advance ~now ~run_for (Sim.Sim_time.add killed_at (sec 2.));
      System.recover sys leader;
      probes := (killed_at, answer) :: !probes
  done;
  advance ~now ~run_for window_hi;
  Workload.Arrival.stop arrival;
  advance ~now ~run_for (Sim.Sim_time.add window_hi (sec s.drain_s));
  let events = Sim.Engine.global_executed () - e0 and words = minor_words () -. w0 in
  let lost =
    Spans.span ~layer:"core" "Safety_checker.analyse" (fun () ->
        List.length (Safety_checker.analyse sys).Safety_checker.lost)
  in
  let live = Spans.span ~layer:"check" "Liveness.certify" (fun () -> Check.Liveness.certify sys) in
  let run_s = elapsed ~t0 ~spent0 in
  let probe_ms, failed_probes =
    List.fold_left
      (fun (ok, bad) (at, answer) ->
        match !answer with
        | Some (Db.Testable_tx.Committed, t) ->
          (Sim.Sim_time.span_to_ms (Sim.Sim_time.diff t at) :: ok, bad)
        | Some (Db.Testable_tx.Aborted, _) | None -> (ok, bad + 1))
      ([], 0) !probes
  in
  let unanswered =
    List.length
      (List.filter (fun u -> u.Check.Liveness.u_tx < probe_base) live.Check.Liveness.undecided)
  in
  let sub_at =
    List.filter_map
      (fun sub ->
        if sub.System.sub_tx >= probe_base then None else Some (sub.System.sub_tx, sub.System.sub_at))
      (System.submissions sys)
  in
  let acks =
    List.map (fun a -> (a.System.tx, a.System.outcome, a.System.at, false)) (System.acked sys)
  in
  let b = measure ~limit_ms:w.Spec.limit_ms ~window_lo ~window_hi ~sub_at acks in
  let warm_and_window = s.warmup_s +. s.measure_s in
  {
    rung = c.rung;
    submitted = System.submitted sys;
    offered = b.b_offered;
    commits = b.b_commits;
    aborts = b.b_aborts;
    within_limit = b.b_within;
    latencies = Array.of_list (List.rev b.b_lat);
    cross_latencies = [||];
    failed =
      unanswered + lost + failed_probes + !leaderless
      + (if live.Check.Liveness.leader_ok then 0 else 1);
    unanswered;
    probes_ms = List.rev probe_ms;
    takeovers_ms = List.rev !takeovers;
    kills;
    arrivals = Workload.Arrival.arrivals arrival;
    expected_arrivals = rate *. warm_and_window;
    all_commits = committed_count acks;
    events;
    messages = Net.Network.messages_sent (System.network sys);
    minor_words = words;
    run_s;
    registry = System.obs_registry sys;
    windows = 0;
    window_wall_us = Obs.Histogram.create ();
    trace_events = Obs.Tracer.events (System.obs_tracer sys);
  }

(* ---- key-range shards, [jobs] domains ---- *)

let build_sharded (c : config) ~shards ~params ~cross_fraction ~zipf_s =
  let rate = List.nth c.workload.Spec.rungs c.rung in
  Spans.span ~layer:"shard" "Sharded_system.create" (fun () ->
      let cfg =
        Shard.Sharded_system.config ~seed:c.seed ~fd_config:Spec.light_fd ~trace_enabled:false
          ~shards ~params group_safe
      in
      let t = Shard.Sharded_system.create cfg in
      let map = Shard.Sharded_system.map t in
      let sps = params.Workload.Params.servers in
      let per_server = params.Workload.Params.clients_per_server in
      (* Each shard's submissions are recorded in its own table, touched
         only from that shard's engine (and so from one domain). *)
      let subs = Array.init shards (fun _ -> ref []) in
      let arrivals =
        List.init shards (fun i ->
            let sys = Shard.Sharded_system.sys t i in
            if c.samplers then System.attach_obs_samplers sys;
            let engine = Shard.Sharded_system.engine_of t i in
            let rng = Sim.Rng.split (Sim.Engine.rng engine) in
            let lo, hi = Shard.Shard_map.range map i in
            let zipf = Workload.Zipf.create ~items:(hi - lo) ~s:zipf_s in
            let generator =
              Workload.Generator.create ~id_base:i ~id_stride:shards
                ~pick:(fun r -> lo + Workload.Zipf.sample zipf r)
                params (Sim.Rng.split rng)
            in
            let submit () =
              let delegate = Sim.Rng.int rng sps in
              let client = (delegate * per_server) + Sim.Rng.int rng per_server in
              let tx = Workload.Generator.next generator ~client in
              let tx =
                if Sim.Rng.float rng 1. < cross_fraction then begin
                  let plo, phi = Shard.Shard_map.range map ((i + 1) mod shards) in
                  Db.Transaction.make ~id:tx.Db.Transaction.id ~client
                    (tx.Db.Transaction.ops
                    @ [ Db.Op.Write (plo + Sim.Rng.int rng (phi - plo), tx.Db.Transaction.id) ])
                end
                else tx
              in
              subs.(i) := (tx.Db.Transaction.id, Sim.Engine.now engine) :: !(subs.(i));
              Shard.Sharded_system.submit t ~delegate:((i * sps) + delegate) tx
            in
            Workload.Arrival.open_poisson engine ~rng:(Sim.Rng.split rng)
              ~rate_tps:(rate /. float_of_int shards) submit)
      in
      (t, arrivals, subs))

let run_sharded (c : config) ~shards ~params ~cross_fraction ~zipf_s =
  let w = c.workload and s = c.scale in
  let rate = List.nth w.Spec.rungs c.rung in
  let t, arrivals, subs = build_sharded c ~shards ~params ~cross_fraction ~zipf_s in
  let windows = ref 0 and last_barrier = ref 0. in
  let window_wall_us = Obs.Histogram.create () in
  let on_exchange ~window:_ ~until:_ =
    let now = Unix.gettimeofday () in
    if !windows > 0 then
      Obs.Histogram.add window_wall_us (int_of_float ((now -. !last_barrier) *. 1e6));
    incr windows;
    last_barrier := now
  in
  let on_exchange = if c.barriers then Some on_exchange else None in
  let now () = Shard.Sharded_system.now t in
  let run_for = Shard.Sharded_system.run_for ~jobs:c.jobs ?on_exchange t in
  let t0 = Unix.gettimeofday () and spent0 = Reference.spent () in
  let e0 = Sim.Engine.global_executed () and w0 = minor_words () in
  let window_lo = Sim.Sim_time.add (now ()) (sec s.warmup_s) in
  let window_hi = Sim.Sim_time.add window_lo (sec s.measure_s) in
  advance ~now ~run_for window_hi;
  List.iter Workload.Arrival.stop arrivals;
  advance ~now ~run_for (Sim.Sim_time.add window_hi (sec s.drain_s));
  let events = Sim.Engine.global_executed () - e0 and words = minor_words () -. w0 in
  let lost =
    Spans.span ~layer:"core" "Safety_checker.analyse" (fun () ->
        List.fold_left
          (fun n i ->
            n + List.length (Safety_checker.analyse (Shard.Sharded_system.sys t i)).Safety_checker.lost)
          0 (List.init shards Fun.id))
  in
  let gacks = Shard.Sharded_system.acked t in
  let run_s = elapsed ~t0 ~spent0 in
  let sub_at = List.concat_map (fun r -> List.rev !r) (Array.to_list subs) in
  let answered = Hashtbl.create (List.length gacks) in
  List.iter (fun g -> Hashtbl.replace answered g.Shard.Sharded_system.g_tx ()) gacks;
  (* No faults here: every submission is owed a decision. *)
  let unanswered = List.length (List.filter (fun (id, _) -> not (Hashtbl.mem answered id)) sub_at) in
  let acks =
    List.map
      (fun g ->
        Shard.Sharded_system.(g.g_tx, g.g_outcome, g.g_at, g.g_cross))
      gacks
  in
  let b = measure ~limit_ms:w.Spec.limit_ms ~window_lo ~window_hi ~sub_at acks in
  {
    rung = c.rung;
    submitted = List.length sub_at;
    offered = b.b_offered;
    commits = b.b_commits;
    aborts = b.b_aborts;
    within_limit = b.b_within;
    latencies = Array.of_list (List.rev b.b_lat);
    cross_latencies = Array.of_list (List.rev b.b_cross_lat);
    failed = unanswered + lost;
    unanswered;
    probes_ms = [];
    takeovers_ms = [];
    kills = 0;
    arrivals = List.fold_left (fun n a -> n + Workload.Arrival.arrivals a) 0 arrivals;
    expected_arrivals = rate *. (s.warmup_s +. s.measure_s);
    all_commits = committed_count acks;
    events;
    messages =
      List.fold_left
        (fun n i -> n + Net.Network.messages_sent (System.network (Shard.Sharded_system.sys t i)))
        0 (List.init shards Fun.id);
    minor_words = words;
    run_s;
    registry = Shard.Sharded_system.aggregate_registry t;
    windows = !windows;
    window_wall_us;
    trace_events = [];
  }

let run (c : config) =
  (* Every cell starts from a fully collected heap, so it does not pay for
     collecting earlier cells' garbage. Under OCaml 5.1 this gives no memory
     back: the resident set still grew from round to round in every run
     measured. *)
  Gc.compact ();
  Spans.in_cell (fun () ->
      Spans.span ~layer:"bench"
        (Printf.sprintf "cell rate=%.0f" (List.nth c.workload.Spec.rungs c.rung))
        (fun () ->
          match c.workload.Spec.shape with
          | Spec.Single { params; tuning; fd; faults } -> run_single c ~params ~tuning ~fd ~faults
          | Spec.Sharded { shards; params; cross_fraction; zipf_s } ->
            run_sharded c ~shards ~params ~cross_fraction ~zipf_s))

(* The wall time of building the cell's deployment, which is then thrown
   away. *)
let setup_time (c : config) =
  (* A finished major cycle with its pools swept: otherwise the build's
     major allocations pay for sweeping whatever garbage came before it,
     and the time swings by a factor of five. *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  (match c.workload.Spec.shape with
  | Spec.Single { params; tuning; fd; _ } -> ignore (build_single c ~params ~tuning ~fd)
  | Spec.Sharded { shards; params; cross_fraction; zipf_s } ->
    ignore (build_sharded c ~shards ~params ~cross_fraction ~zipf_s));
  Unix.gettimeofday () -. t0
