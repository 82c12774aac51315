open Groupsafe
module Pool = Parallel.Domain_pool

let sec = Sim.Sim_time.span_s
let ms = Sim.Sim_time.span_ms

type load_point = {
  technique : System.technique;
  load_tps : float;
  mean_ms : float;
  p95_ms : float;
  abort_rate : float;
  throughput_tps : float;
  completed : int;
  registry : Obs.Registry.t;
  trace_events : Obs.Tracer.event list;
}

let run_load_point ?(seed = 1L) ?(params = Workload.Params.table4) ?(warmup_s = 5.)
    ?(measure_s = 60.) ?apply_write_factor ?tuning ?(obs_trace = false) technique ~load_tps =
  let sys =
    System.create ~seed ~params ~fd_config:Gcs.Failure_detector.light_config
      ?apply_write_factor ?tuning ~trace_enabled:false ~obs_trace technique
  in
  System.attach_obs_samplers sys;
  let engine = System.engine sys in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let generator = Workload.Generator.create params (Sim.Rng.split rng) in
  let n = params.Workload.Params.servers in
  let per_server = params.Workload.Params.clients_per_server in
  let submit () =
    let delegate = Sim.Rng.int rng n in
    let client = (delegate * per_server) + Sim.Rng.int rng per_server in
    System.submit sys ~delegate (Workload.Generator.next generator ~client)
  in
  let arrival =
    Workload.Arrival.open_poisson engine ~rng:(Sim.Rng.split rng) ~rate_tps:load_tps submit
  in
  let warmup_at = Sim.Sim_time.add (Sim.Engine.now engine) (sec warmup_s) in
  Workload.Metrics.set_warmup (System.metrics sys) warmup_at;
  System.run_for sys (sec (warmup_s +. measure_s));
  Workload.Arrival.stop arrival;
  System.run_for sys (sec 3.) (* drain in-flight transactions *);
  let m = System.metrics sys in
  {
    technique;
    load_tps;
    mean_ms = Workload.Metrics.mean_response_ms m;
    p95_ms = Workload.Metrics.p95_response_ms m;
    abort_rate = Workload.Metrics.abort_rate m;
    throughput_tps = Workload.Metrics.throughput_tps m ~since:warmup_at;
    completed = Sim.Stats.count (Workload.Metrics.responses m);
    registry = System.obs_registry sys;
    trace_events = Obs.Tracer.events (System.obs_tracer sys);
  }

(* Closed-loop variant of a load point: the paper's Table 4 client model —
   4 clients per server, each thinking (exponential) then submitting and
   waiting for its response. Offered load self-throttles as responses
   lengthen; the think time sets the operating point. *)
let run_closed_point ?(seed = 1L) ?(params = Workload.Params.table4) ?(warmup_s = 5.)
    ?(measure_s = 60.) technique ~think_time_s =
  let sys =
    System.create ~seed ~params ~fd_config:Gcs.Failure_detector.light_config
      ~trace_enabled:false technique
  in
  let engine = System.engine sys in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let generator = Workload.Generator.create params (Sim.Rng.split rng) in
  let n = params.Workload.Params.servers in
  let clients = n * params.Workload.Params.clients_per_server in
  let submit ~done_ =
    let delegate = Sim.Rng.int rng n in
    System.submit sys ~delegate
      ~on_response:(fun _ -> done_ ())
      (Workload.Generator.next generator ~client:0)
  in
  let arrival =
    Workload.Arrival.closed_loop engine ~rng:(Sim.Rng.split rng) ~clients
      ~think_time:(sec think_time_s) submit
  in
  let warmup_at = Sim.Sim_time.add (Sim.Engine.now engine) (sec warmup_s) in
  Workload.Metrics.set_warmup (System.metrics sys) warmup_at;
  System.run_for sys (sec (warmup_s +. measure_s));
  Workload.Arrival.stop arrival;
  System.run_for sys (sec 3.);
  let m = System.metrics sys in
  ( Workload.Metrics.throughput_tps m ~since:warmup_at,
    Workload.Metrics.mean_response_ms m,
    Workload.Metrics.abort_rate m )

(* ---- Sharded load points (docs/SHARDING.md) ---- *)

(* One sharded run, mirroring [run_load_point] per shard: shard [i]'s
   client RNG splits off its own engine's stream, its generator allocates
   ids [i, i+shards, ...], and its arrival process carries an equal slice
   of the offered load. With [shards = 1], no skew and no cross traffic,
   every draw and every event reproduces the unsharded runner
   byte-for-byte (same engine seed, legacy item picker, fast path only).
   [zipf_s > 0] skews each shard's item choice towards the low keys of its
   range; [cross_fraction] of submissions (decided per submission, drawn
   only when [shards > 1] so the single-shard stream is untouched) extend
   the transaction with one write in the next shard's range and so go
   through cross-shard 2PC certification. *)
let run_sharded_load_point ?(seed = 1L) ?(params = Workload.Params.table4) ?(warmup_s = 5.)
    ?(measure_s = 60.) ?tuning ?(shards = 1) ?(cross_fraction = 0.) ?(zipf_s = 0.) ?jobs
    technique ~load_tps =
  let cfg =
    Shard.Sharded_system.config ~seed ?tuning ~fd_config:Gcs.Failure_detector.light_config
      ~trace_enabled:false ~shards ~params technique
  in
  let t = Shard.Sharded_system.create cfg in
  let map = Shard.Sharded_system.map t in
  let sps = params.Workload.Params.servers in
  let per_server = params.Workload.Params.clients_per_server in
  let arrivals =
    List.init shards (fun i ->
        let engine = Shard.Sharded_system.engine_of t i in
        let rng = Sim.Rng.split (Sim.Engine.rng engine) in
        let lo, hi = Shard.Shard_map.range map i in
        let pick =
          if zipf_s > 0. then begin
            let z = Workload.Zipf.create ~items:(hi - lo) ~s:zipf_s in
            Some (fun r -> lo + Workload.Zipf.sample z r)
          end
          else if shards > 1 then Some (fun r -> lo + Sim.Rng.int r (hi - lo))
          else None (* the unsharded picker, byte-for-byte *)
        in
        let generator =
          Workload.Generator.create ~id_base:i ~id_stride:shards ?pick params
            (Sim.Rng.split rng)
        in
        let submit () =
          let delegate = Sim.Rng.int rng sps in
          let client = (delegate * per_server) + Sim.Rng.int rng per_server in
          let tx = Workload.Generator.next generator ~client in
          let tx =
            if shards > 1 && cross_fraction > 0. && Sim.Rng.float rng 1. < cross_fraction
            then begin
              let partner = (i + 1) mod shards in
              let plo, phi = Shard.Shard_map.range map partner in
              let item = plo + Sim.Rng.int rng (phi - plo) in
              Db.Transaction.make ~id:tx.Db.Transaction.id ~client
                (tx.Db.Transaction.ops @ [ Db.Op.Write (item, tx.Db.Transaction.id) ])
            end
            else tx
          in
          Shard.Sharded_system.submit t ~delegate:((i * sps) + delegate) tx
        in
        Workload.Arrival.open_poisson engine ~rng:(Sim.Rng.split rng)
          ~rate_tps:(load_tps /. float_of_int shards)
          submit)
  in
  let warmup_at = Sim.Sim_time.add (Shard.Sharded_system.now t) (sec warmup_s) in
  Shard.Sharded_system.set_warmup t warmup_at;
  Shard.Sharded_system.run_for ?jobs t (sec (warmup_s +. measure_s));
  List.iter Workload.Arrival.stop arrivals;
  Shard.Sharded_system.run_for ?jobs t (sec 3.) (* drain in-flight transactions *);
  let metrics = List.init shards (Shard.Sharded_system.metrics t) in
  let responses = Sim.Stats.merge "response_ms" (List.map Workload.Metrics.responses metrics) in
  let commits = List.fold_left (fun a m -> a + Workload.Metrics.commits m) 0 metrics in
  let aborts = List.fold_left (fun a m -> a + Workload.Metrics.aborts m) 0 metrics in
  let throughput =
    List.fold_left (fun a m -> a +. Workload.Metrics.throughput_tps m ~since:warmup_at) 0. metrics
  in
  {
    technique;
    load_tps;
    mean_ms = Sim.Stats.mean responses;
    p95_ms = Sim.Stats.percentile responses 95.;
    abort_rate =
      (if commits + aborts = 0 then nan else float_of_int aborts /. float_of_int (commits + aborts));
    throughput_tps = throughput;
    completed = Sim.Stats.count responses;
    registry = Shard.Sharded_system.merged_registry t;
    trace_events = [];
  }

(* ---- Figure 9 ---- *)

let default_loads = [ 20.; 22.; 24.; 26.; 28.; 30.; 32.; 34.; 36.; 38.; 40. ]

let fig9_techniques =
  [
    System.Dsm Dsm_replica.Group_safe_mode;
    System.Lazy Lazy_replica.One_safe_mode;
    System.Dsm Dsm_replica.Group_one_safe_mode;
  ]

(* One Fig. 9 cell from its already-run load points; the ± is the
   normal-approximation 95% confidence half-width. *)
let cell_of_runs ~replications runs =
  let series_of f =
    let s = Sim.Stats.series "cell" in
    List.iter (fun p -> Sim.Stats.add s (f p)) runs;
    s
  in
  let means = series_of (fun p -> p.mean_ms) in
  let aborts = series_of (fun p -> p.abort_rate) in
  let tputs = series_of (fun p -> p.throughput_tps) in
  let mean_cell =
    if replications = 1 then Report.f1 (Sim.Stats.mean means)
    else
      Printf.sprintf "%s +-%s" (Report.f1 (Sim.Stats.mean means))
        (Report.f1 (Sim.Stats.confidence95 means))
  in
  (mean_cell, Sim.Stats.mean aborts, Sim.Stats.mean tputs)

let replication_seed seed r = Int64.add seed (Int64.of_int (r * 7919))

let fig9 ?(seed = 1L) ?(loads = default_loads) ?measure_s ?tuning ?(replications = 1)
    ?(csv_path = "fig9.csv") ?trace_out ?metrics_out ?(shards = 1) ?(cross_fraction = 0.) () =
  Report.section
    (if shards = 1 then "Figure 9: response time vs offered load (Table 4 system)"
     else
       Printf.sprintf
         "Figure 9, sharded: response time vs offered load (%d Table 4 groups)" shards);
  if shards > 1 then begin
    Report.note
      (Printf.sprintf
         "%d shards, one Table 4 replica group each; offered load split evenly; %.0f%% of \
          submissions cross-shard (2PC-certified)."
         shards (100. *. cross_fraction));
    if trace_out <> None then
      Report.note "trace capture is unsharded-only; ignoring --trace-out."
  end;
  (match tuning with
  | Some t when t <> Gcs.Bcast_tuning.default ->
    Report.note
      (Printf.sprintf "broadcast engine: %s (batching/pipelining/ring apply to the Dsm stacks)"
         (Gcs.Bcast_tuning.to_string t))
  | Some _ | None -> ());
  Report.note "paper shape: group-safe best below ~38 tps, then crossed by lazy;";
  Report.note "group-1-safe clearly worst and degrading fastest; group-safe abort";
  Report.note "rate roughly constant slightly below 7%.";
  if replications > 1 then
    Report.note
      (Printf.sprintf "%d independent runs per point; +- is the 95%% confidence half-width."
         replications);
  let header =
    [
      "load(tps)"; "group-safe(ms)"; "lazy 1-safe(ms)"; "group-1-safe(ms)"; "gs abort"; "gs tput";
    ]
  in
  (* Every (load, technique, replication) is one independent simulation
     with its seed assigned up front; the pool joins them by index and the
     rows are assembled afterwards, so the printed table and the CSV are
     byte-identical at any worker count. With [trace_out], the first-load
     replication-0 cell of each technique also records tracer spans —
     chosen by index, so the selection is worker-count independent too. *)
  let trace_on = trace_out <> None && shards = 1 in
  let trace_out = if shards = 1 then trace_out else None in
  let items =
    List.concat
      (List.mapi
         (fun li load_tps ->
           List.concat_map
             (fun technique -> List.init replications (fun r -> (li, load_tps, technique, r)))
             fig9_techniques)
         loads)
  in
  let points =
    Array.of_list
      (Pool.map
         (fun (li, load_tps, technique, r) ->
           if shards = 1 then
             run_load_point ~seed:(replication_seed seed r) ?measure_s ?tuning
               ~obs_trace:(trace_on && li = 0 && r = 0) technique ~load_tps
           else
             (* cells already fan out over the pool; each sharded run stays
                sequential inside its cell (byte-identical either way). *)
             run_sharded_load_point ~seed:(replication_seed seed r) ?measure_s ?tuning ~shards
               ~cross_fraction ~jobs:1 technique ~load_tps)
         items)
  in
  let ntech = List.length fig9_techniques in
  let cell li ti =
    cell_of_runs ~replications
      (List.init replications (fun r -> points.((((li * ntech) + ti) * replications) + r)))
  in
  let rows =
    List.mapi
      (fun li load_tps ->
        let gs, gs_abort, gs_tput = cell li 0 in
        let lazy1, _, _ = cell li 1 in
        let g1s, _, _ = cell li 2 in
        [
          Printf.sprintf "%.0f" load_tps;
          gs;
          lazy1;
          g1s;
          Report.pct gs_abort;
          Report.f1 gs_tput;
        ])
      loads
  in
  Report.table ~header rows;
  Report.csv ~path:csv_path ~header rows;
  Report.note (Printf.sprintf "raw series written to %s" csv_path);
  (* Observability exports fold the joined [points] array in fixed
     (technique, load, replication) index order, so both files are
     byte-identical at any worker count. *)
  (match metrics_out with
   | None -> ()
   | Some path ->
     let sections =
       List.mapi
         (fun ti technique ->
           let merged = Obs.Registry.create () in
           List.iteri
             (fun li _ ->
               for r = 0 to replications - 1 do
                 Obs.Registry.merge_into ~into:merged
                   points.((((li * ntech) + ti) * replications) + r).registry
               done)
             loads;
           { Obs.Export.name = System.technique_name technique; registry = merged })
         fig9_techniques
     in
     Obs.Export.write ~path sections;
     Report.note (Printf.sprintf "metrics written to %s" path));
  match trace_out with
  | None -> ()
  | Some path ->
    let first_load = match loads with l :: _ -> l | [] -> 0. in
    let processes =
      List.mapi
        (fun ti technique ->
          {
            Obs.Chrome_trace.pid = ti;
            name =
              Printf.sprintf "%s @ %.0f tps" (System.technique_name technique) first_load;
            events = points.(ti * replications).trace_events;
          })
        fig9_techniques
    in
    Obs.Chrome_trace.write ~path processes;
    Report.note (Printf.sprintf "chrome trace written to %s" path)

(* ---- Broadcast-engine ceiling: batching, pipelining, ring ---- *)

module Ceiling_log = Gcs.Replicated_log.Make (struct
  type t = int

  let equal = Int.equal
  let pp = Format.pp_print_int
end)

(* The broadcast engine's raw ceiling, isolated from the database: a bare
   volatile replicated-log cluster on the LAN network model is saturated
   with [burst] values proposed at the leader in one instant, and the
   ceiling is decided-values per simulated second from the burst to the
   last decision at the leader. Message CPU is the binding resource here,
   so the result isolates what batching (amortising per-instance messages
   over [batch] values) and ring dissemination (constant per-node message
   cost instead of the leader's O(n)) buy the ordering layer itself. *)
let log_ceiling ?(n = 9) ?(burst = 400) tuning =
  let engine = Sim.Engine.create ~seed:11L () in
  let network = Net.Network.create engine Net.Network.lan_config in
  let ids =
    Array.init n (fun i -> Net.Node_id.make ~index:i ~label:(Printf.sprintf "S%d" i))
  in
  let processes =
    Array.init n (fun i -> Sim.Process.create engine ~name:(Net.Node_id.label ids.(i)))
  in
  (* One single-server CPU per node makes message handling the binding
     resource (Table 4's 0.07 ms per network operation): without it the
     simulated network never queues and every engine looks infinitely
     fast. *)
  let cpus = Array.init n (fun _ -> Sim.Resource.create engine ~name:"cpu" ~servers:1) in
  let endpoints =
    Array.init n (fun i ->
        Net.Endpoint.attach network ~id:ids.(i) ~process:processes.(i) ~cpu:cpus.(i) ())
  in
  let group = Array.to_list ids in
  let decided = ref 0 in
  let last_decide = ref (Sim.Engine.now engine) in
  let members =
    Array.init n (fun i ->
        let m = Ceiling_log.create endpoints.(i) ~group ~mode:Ceiling_log.Volatile ~tuning () in
        if i = 0 then
          Ceiling_log.on_decide m (fun ~slot:_ vs ->
              decided := !decided + List.length vs;
              last_decide := Sim.Engine.now engine);
        m)
  in
  let run_chunk span =
    Sim.Engine.run ~until:(Sim.Sim_time.add (Sim.Engine.now engine) span) engine
  in
  run_chunk (ms 200.) (* leader election *);
  let t0 = Sim.Engine.now engine in
  for v = 1 to burst do
    Ceiling_log.propose members.(0) v
  done;
  let attempts = ref 0 in
  while !decided < burst && !attempts < 400 do
    incr attempts;
    run_chunk (ms 50.)
  done;
  if !decided < burst then 0.
  else
    let elapsed_s = Sim.Sim_time.span_to_ms (Sim.Sim_time.diff !last_decide t0) /. 1000. in
    float_of_int burst /. elapsed_s

let ceiling_engines =
  [
    ("seed (b=1, broadcast)", Gcs.Bcast_tuning.default);
    ("batched b=32 w=32", Gcs.Bcast_tuning.batched ());
    ("ring w=32", Gcs.Bcast_tuning.ring ());
    ("ring + batched b=32 w=32", Gcs.Bcast_tuning.ring ~batch:32 ());
  ]

let ceiling_configs =
  [
    ("group-safe / seed", System.Dsm Dsm_replica.Group_safe_mode, Gcs.Bcast_tuning.default);
    ("group-safe / batched", System.Dsm Dsm_replica.Group_safe_mode, Gcs.Bcast_tuning.batched ());
    ( "group-safe / ring+batch",
      System.Dsm Dsm_replica.Group_safe_mode,
      Gcs.Bcast_tuning.ring ~batch:32 () );
    ("2-safe / seed", System.Dsm Dsm_replica.Two_safe_mode, Gcs.Bcast_tuning.default);
    ("2-safe / batched", System.Dsm Dsm_replica.Two_safe_mode, Gcs.Bcast_tuning.batched ());
  ]

(* Table 4 with 2004 spinning disks swapped for storage an order of
   magnitude faster: on the paper's hardware the sequential ordered-apply
   pipeline saturates the system around the ~38 tps crossover long before
   the ordering layer matters, so the broadcast backends tie. Relieving
   storage extends Fig. 9's load axis until the broadcast engine itself is
   the binding resource — which is where batching, pipelining and ring
   dissemination separate. *)
let fast_storage =
  {
    Workload.Params.table4 with
    Workload.Params.io_time_min = ms 0.4;
    io_time_max = ms 1.2;
    cpu_per_io = ms 0.1;
  }

let default_ceiling_loads = [ 40.; 160.; 640.; 1600.; 2240. ]

let broadcast_ceiling ?(seed = 1L) ?(loads = default_ceiling_loads) ?(measure_s = 30.) () =
  Report.section "Broadcast ceiling: batching + pipelining + ring vs the seed engine";
  Report.note "part 1 — the ordering layer alone: a 9-member volatile log saturated";
  Report.note "with one burst of 400 values; ceiling = decided values per simulated";
  Report.note "second. Batching amortises the per-instance message cost, the ring";
  Report.note "replaces the leader's O(n) fan-out with O(1) per node.";
  let engine_rows =
    Pool.map (fun (name, tuning) -> (name, log_ceiling tuning)) ceiling_engines
  in
  let seed_ceiling =
    match engine_rows with (_, c) :: _ -> c | [] -> 0.
  in
  Report.table ~header:[ "engine"; "ceiling (values/s)"; "vs seed" ]
    (List.map
       (fun (name, c) ->
         [
           name;
           Report.f1 c;
           (if seed_ceiling > 0. then Printf.sprintf "%.1fx" (c /. seed_ceiling) else "-");
         ])
       engine_rows);
  Report.note "part 2 — the full system on Table 4 with storage 10x faster (modern";
  Report.note "disks; on the paper's 2004 disks the ordered-apply pipeline saturates";
  Report.note "near the ~38 tps crossover before the ordering layer matters). The";
  Report.note "extended load axis runs far past the crossover: mean response per";
  Report.note "backend, with each backend's saturation point (highest load still";
  Report.note "answering >= 95% of the offered rate).";
  (* Every (load, config) cell is an independent simulation with its seed
     fixed up front; the pool joins by index, so tables are byte-identical
     at any worker count. *)
  let items =
    List.concat_map
      (fun load -> List.map (fun cfg -> (load, cfg)) ceiling_configs)
      loads
  in
  let points =
    Array.of_list
      (Pool.map
         (fun (load_tps, (_, technique, tuning)) ->
           run_load_point ~seed ~params:fast_storage ~measure_s ~tuning technique ~load_tps)
         items)
  in
  let ncfg = List.length ceiling_configs in
  let point li ci = points.((li * ncfg) + ci) in
  let header = "load(tps)" :: List.map (fun (name, _, _) -> name ^ " (ms)") ceiling_configs in
  let rows =
    List.mapi
      (fun li load ->
        Printf.sprintf "%.0f" load
        :: List.mapi (fun ci _ -> Report.f1 (point li ci).mean_ms) ceiling_configs)
      loads
  in
  Report.table ~header rows;
  let saturation ci =
    let sat =
      List.concat
        (List.mapi
           (fun li load ->
             (* Saturation is judged on answered requests per second, not on
                committed throughput: group-safe aborts a steady ~7% of
                transactions at certification, so its commit rate can never
                reach 95% of the offered load even when the system keeps up. *)
             if float_of_int (point li ci).completed /. measure_s >= 0.95 *. load then [ load ]
             else [])
           loads)
    in
    match List.rev sat with [] -> None | l :: _ -> Some l
  in
  Report.table ~header:[ "config"; "saturation point (tps)" ]
    (List.mapi
       (fun ci (name, _, _) ->
         [
           name;
           (match saturation ci with
           | Some l when List.exists (fun x -> x > l) loads -> Printf.sprintf "%.0f" l
           | Some l -> Printf.sprintf ">= %.0f (unsaturated at max load)" l
           | None -> "below the lowest load");
         ])
       ceiling_configs);
  (* Where the seed group-safe engine's latency advantage over a batched
     2-safe stack collapses: the first load at which the batched 2-safe
     mean response undercuts seed group-safe. *)
  let collapse =
    let gs_seed = 0 and two_safe_batched = ncfg - 1 in
    List.find_opt
      (fun li -> (point li two_safe_batched).mean_ms <= (point li gs_seed).mean_ms)
      (List.mapi (fun li _ -> li) loads)
  in
  (match collapse with
  | Some i ->
    Report.note
      (Printf.sprintf
         "group-safe (seed engine) loses its latency advantage over batched 2-safe at %.0f tps:"
         (List.nth loads i));
    Report.note "past its engine ceiling, queueing in the seed ordering layer costs more";
    Report.note "than 2-safe's extra end-to-end acknowledgement round on a faster engine."
  | None ->
    Report.note "group-safe (seed engine) kept a latency advantage over batched 2-safe";
    Report.note "at every measured load.");
  Report.note "same safety level, same oracle-certified delivery stream — the ceiling";
  Report.note "lift is pure engine throughput (see docs/PERFORMANCE.md)."

(* ---- Table 1 ---- *)

let closed_loop ?(seed = 1L) () =
  Report.section "Figure 9, closed-loop client model (Table 4: 4 clients per server)";
  Report.note "each of the 36 clients thinks, submits, and waits for its response:";
  Report.note "offered load self-throttles, so each think time yields an achieved";
  Report.note "(throughput, response) operating point per technique.";
  let think_times = [ 1.6; 1.2; 0.9; 0.7; 0.5; 0.35 ] in
  let header =
    [ "think (s)"; "group-safe tps / ms"; "lazy 1-safe tps / ms"; "group-1-safe tps / ms" ]
  in
  let techniques =
    [
      System.Dsm Dsm_replica.Group_safe_mode;
      System.Lazy Lazy_replica.One_safe_mode;
      System.Dsm Dsm_replica.Group_one_safe_mode;
    ]
  in
  (* Each (think time, technique) operating point is an independent closed
     system: one work item per cell, rows assembled after the join. *)
  let cells =
    Array.of_list
      (Pool.map
         (fun (think_time_s, technique) ->
           let tput, resp, _ = run_closed_point ~seed ~measure_s:40. technique ~think_time_s in
           Printf.sprintf "%4.1f / %s" tput (Report.f1 resp))
         (List.concat_map
            (fun tt -> List.map (fun technique -> (tt, technique)) techniques)
            think_times))
  in
  let rows =
    List.mapi
      (fun i tt ->
        [
          Printf.sprintf "%.2f" tt;
          cells.(3 * i);
          cells.((3 * i) + 1);
          cells.((3 * i) + 2);
        ])
      think_times
  in
  Report.table ~header rows;
  Report.note "same shape as the open-loop sweep: group-safe reaches any given";
  Report.note "throughput at the lowest response time until the ordered apply";
  Report.note "pipeline saturates; group-1-safe saturates first (its clients' cycle";
  Report.note "time is dominated by waiting, capping the throughput it can reach)."

let table1 () =
  Report.section "Table 1: safety levels by (delivered x logged) guarantees";
  let deliv = [ (Safety.Delivered_one, "delivered on 1"); (Safety.Delivered_all, "delivered on all") ] in
  let logged =
    [
      (Safety.Logged_none, "logged nowhere");
      (Safety.Logged_one, "logged on 1");
      (Safety.Logged_all, "logged on all");
    ]
  in
  let rows =
    List.map
      (fun (d, dl) ->
        dl
        :: List.map
             (fun (l, _) ->
               match Safety.classify ~delivered:d ~logged:l with
               | Some level -> Safety.to_string level
               | None -> "(impossible)")
             logged)
      deliv
  in
  Report.table ~header:("" :: List.map snd logged) rows;
  List.iter
    (fun level ->
      Report.note (Printf.sprintf "%-13s %s" (Safety.to_string level) (Safety.description level)))
    Safety.all

(* ---- Crash scenarios (Tables 2 and 3) ---- *)

let scenario_params =
  {
    Workload.Params.table4 with
    Workload.Params.servers = 3;
    items = 500;
    hot_fraction = 0.;
    hot_items = 0;
  }

let write_only_tx = Db.Transaction.make ~id:0 ~client:0 [ Db.Op.Write (10, 1); Db.Op.Write (11, 1) ]

(* One acknowledged transaction against a crash schedule.
   [pre] runs right after submission (schedule early crashes there),
   [at_ack] at the client acknowledgement, [later] after 2 s. Returns
   whether the client was acknowledged and the checker report after
   quiescence. *)
let scenario ?(seed = 1L) technique ~pre ~at_ack ~later =
  let sys = System.create ~seed ~params:scenario_params technique in
  let acked = ref false in
  System.submit sys ~delegate:0
    ~on_response:(fun o ->
      if o = Db.Testable_tx.Committed then acked := true;
      at_ack sys)
    write_only_tx;
  pre sys;
  System.run_for sys (sec 2.);
  later sys;
  System.run_for sys (sec 6.);
  (!acked, Safety_checker.analyse sys)

let crash_all sys =
  for i = 0 to System.n_servers sys - 1 do
    System.crash sys i
  done

(* The remotes S1 and S2 crash 2 ms after submission, while their own log
   flushes are still in flight. *)
let crash_remotes sys =
  List.iter
    (fun i ->
      Sim.Engine.schedule (System.engine sys) ~delay:(ms 2.) (fun () -> System.crash sys i))
    [ 1; 2 ]

let nop (_ : System.t) = ()

let verdict (acked, report) =
  if not acked then "no ack"
  else if report.Safety_checker.lost = [] then "no loss"
  else "LOST"

(* Worst-case schedules per crash budget. The delegate is server 0. *)
let no_crash_cell ?seed technique = scenario ?seed technique ~pre:nop ~at_ack:nop ~later:nop

let minority_cell ?seed technique =
  (* The single worst crash: the delegate dies at the acknowledgement and
     never returns. *)
  scenario ?seed technique ~pre:nop ~at_ack:(fun sys -> System.crash sys 0) ~later:nop

let group_failure_cell ?seed technique =
  (* Everyone down. For group-1-safe the remotes must die while their own
     flushes are still in flight (only the delegate's log is guaranteed at
     the acknowledgement); the delegate then dies at the acknowledgement
     and stays down while the others reform. *)
  match technique with
  | System.Dsm Dsm_replica.Group_one_safe_mode ->
    scenario ?seed technique ~pre:crash_remotes
      ~at_ack:(fun sys -> System.crash sys 0)
      ~later:(fun sys ->
        System.recover sys 1;
        System.recover sys 2)
  | System.Dsm _ | System.Lazy _ | System.Two_pc ->
    scenario ?seed technique ~pre:nop ~at_ack:crash_all
      ~later:(fun sys ->
        System.recover sys 1;
        System.recover sys 2)

let table2 ?seed () =
  Report.section "Table 2: tolerated crashes per safety level (empirical)";
  Report.note "each cell: one acknowledged transaction vs the worst-case crash";
  Report.note "schedule for that crash budget (3 servers, delegate = S0).";
  let levels =
    [ Safety.Zero_safe; One_safe; Group_safe; Group_one_safe; Two_safe; Very_safe ]
  in
  let expected level = function
    | `None -> "no loss"
    | `Minority -> begin
        match Safety.crash_tolerance level with
        | Safety.Tolerates_none -> "loss possible"
        | Safety.Tolerates_minority | Safety.Tolerates_all -> "no loss"
      end
    | `All -> begin
        match Safety.crash_tolerance level with
        | Safety.Tolerates_all -> "no loss"
        | Safety.Tolerates_none | Safety.Tolerates_minority -> "loss possible"
      end
  in
  let with_technique = List.map (fun level -> (level, System.technique_of_level level)) levels in
  (* The scenario matrix: every (level, crash budget) cell is one
     independent acknowledged-transaction replay — 3 cells per level, all
     fanned out together and joined by index. *)
  let cells =
    Array.of_list
      (Pool.run_all
         (List.concat_map
            (fun (_, technique) ->
              [
                (fun () -> verdict (no_crash_cell ?seed technique));
                (fun () -> verdict (minority_cell ?seed technique));
                (fun () -> verdict (group_failure_cell ?seed technique));
              ])
            with_technique))
  in
  let rows =
    List.mapi
      (fun i (level, _) ->
        [
          Safety.to_string level;
          Printf.sprintf "%s (paper: %s)" cells.(3 * i) (expected level `None);
          Printf.sprintf "%s (paper: %s)" cells.((3 * i) + 1) (expected level `Minority);
          Printf.sprintf "%s (paper: %s)" cells.((3 * i) + 2) (expected level `All);
        ])
      with_technique
  in
  Report.table ~header:[ "level"; "0 crashes"; "minority crash"; "all n crash" ] rows;
  Report.note "every observed LOST falls inside the paper's 'loss possible'; every";
  Report.note "'no loss' guarantee holds.";
  (* The flip side of the trade-off (§2.1): the safer the level, the less
     available. With one server already down before the client submits,
     very-safe cannot acknowledge until that server recovers. *)
  let availability technique =
    let sys = System.create ~params:scenario_params technique in
    System.crash sys 2;
    System.run_for sys (sec 1.) (* let detectors settle *);
    let acked_at = ref None in
    System.submit sys ~delegate:0
      ~on_response:(fun _ -> acked_at := Some (System.now sys))
      write_only_tx;
    System.run_for sys (sec 8.);
    let before_recovery = !acked_at <> None in
    System.recover sys 2;
    System.run_for sys (sec 8.);
    match (before_recovery, !acked_at) with
    | true, _ -> "acknowledged normally"
    | false, Some _ -> "BLOCKED until S2 recovered"
    | false, None -> "never acknowledged"
  in
  Report.note "";
  Report.note "availability with one server down at submission time:";
  Report.table ~header:[ "level"; "commit availability" ]
    (List.map2
       (fun (level, _) v -> [ Safety.to_string level; v ])
       with_technique
       (Pool.map (fun (_, technique) -> availability technique) with_technique));
  Report.note "very-safe trades away availability: a single crash blocks commits";
  Report.note "until the crashed server is back (paper: 'not very practical')."

let table3 ?seed () =
  Report.section "Table 3: group-safe vs group-1-safe loss conditions (empirical)";
  let techniques =
    [
      (Safety.Group_safe, System.Dsm Dsm_replica.Group_safe_mode);
      (Safety.Group_one_safe, System.Dsm Dsm_replica.Group_one_safe_mode);
    ]
  in
  (* Middle column: the group fails (majority down, flushes in flight) but
     the delegate survives; the recovering majority finds the live delegate
     and reforms from its state. *)
  let group_fails_sd_alive technique =
    scenario ?seed technique ~pre:crash_remotes ~at_ack:nop
      ~later:(fun sys ->
        System.recover sys 1;
        System.recover sys 2)
  in
  (* Six independent crash scenarios (2 levels x 3 columns), fanned out. *)
  let cells =
    Array.of_list
      (Pool.run_all
         (List.concat_map
            (fun (_, technique) ->
              [
                (fun () -> verdict (minority_cell ?seed technique));
                (fun () -> verdict (group_fails_sd_alive technique));
                (fun () -> verdict (group_failure_cell ?seed technique));
              ])
            techniques))
  in
  let rows =
    List.mapi
      (fun i (level, _) ->
        [ Safety.to_string level; cells.(3 * i); cells.((3 * i) + 1); cells.((3 * i) + 2) ])
      techniques
  in
  Report.table
    ~header:[ "level"; "group survives"; "group fails, Sd alive"; "group fails, Sd crashes" ]
    rows;
  Report.note "paper: group-safe loses whenever the group fails ('possible loss' in";
  Report.note "both right columns); under crash-only schedules the live delegate";
  Report.note "always seeds recovery, so the middle cell shows no loss here — the";
  Report.note "loss needs recovery to bypass the live delegate (e.g. a partition).";
  Report.note "group-1-safe is guaranteed safe in the middle column and loses only";
  Report.note "when the delegate is gone too (right column).";
  (* The distinguishing sub-scenario: same right-column schedule, but the
     delegate recovers first and seeds the reformed group from its own log:
     group-1-safe keeps the transaction, group-safe cannot. *)
  let delegate_recovers_first technique =
    scenario ?seed technique ~pre:crash_remotes
      ~at_ack:(fun sys -> System.crash sys 0)
      ~later:(fun sys ->
        System.recover sys 0;
        Sim.Engine.schedule (System.engine sys) ~delay:(ms 100.) (fun () ->
            System.recover sys 1))
  in
  let sub =
    List.map2
      (fun (level, _) v -> [ Safety.to_string level; v ])
      techniques
      (Pool.map (fun (_, technique) -> verdict (delegate_recovers_first technique)) techniques)
  in
  Report.note "";
  Report.note "sub-scenario: all crash, the delegate recovers first and seeds the group:";
  Report.table ~header:[ "level"; "outcome" ] sub;
  Report.note "the delegate's log is exactly what group-1-safety adds."

let table4 () =
  Report.section "Table 4: simulator parameters";
  Report.table ~header:[ "parameter"; "value" ]
    (List.map (fun (k, v) -> [ k; v ]) (Workload.Params.rows Workload.Params.table4))

(* ---- Fig. 5 / Fig. 7 narratives ---- *)

let interesting_kinds =
  [ "submit"; "broadcast"; "respond"; "crash"; "recover"; "cold_start"; "state_transfer";
    "recovered_local"; "deliver"; "logged" ]

let print_trace_highlights sys =
  let entries =
    List.filter
      (fun e -> List.mem e.Sim.Trace.kind interesting_kinds)
      (Sim.Trace.entries (System.trace sys))
  in
  List.iter (fun e -> Format.printf "  %a@." Sim.Trace.pp_entry e) entries

let fig5_schedule ?(seed = 1L) technique =
  let sys = System.create ~seed ~params:scenario_params technique in
  let acked = ref false in
  System.submit sys ~delegate:0
    ~on_response:(fun o ->
      if o = Db.Testable_tx.Committed then acked := true;
      (* Let the ordering protocol's decision reach every replica — Fig. 5
         has m delivered on all servers — but crash before any of the
         asynchronous log flushes (>= 4 ms) can complete. *)
      Sim.Engine.schedule (System.engine sys) ~delay:(ms 1.5) (fun () -> crash_all sys))
    write_only_tx;
  System.run_for sys (sec 2.);
  for i = 0 to 2 do
    System.recover sys i
  done;
  System.run_for sys (sec 6.);
  (sys, !acked, Safety_checker.analyse sys)

let fig5 ?seed () =
  Report.section "Fig. 5: classical atomic broadcast is not 2-safe (group-safe run)";
  let sys, acked, report = fig5_schedule ?seed (System.Dsm Dsm_replica.Group_safe_mode) in
  print_trace_highlights sys;
  Report.note (Printf.sprintf "client acknowledged: %b" acked);
  Report.note
    (Printf.sprintf "transactions lost after whole-group crash: %d (group failed: %b)"
       (List.length report.Safety_checker.lost)
       report.Safety_checker.group_failed);
  Report.note "the message was delivered everywhere, processed nowhere durably, and";
  Report.note "no component kept it: the acknowledged transaction is gone."

let fig7 ?seed () =
  Report.section "Fig. 7: end-to-end atomic broadcast recovers the transaction (2-safe run)";
  let sys, acked, report = fig5_schedule ?seed (System.Dsm Dsm_replica.Two_safe_mode) in
  print_trace_highlights sys;
  Report.note (Printf.sprintf "client acknowledged: %b" acked);
  Report.note
    (Printf.sprintf "transactions lost after whole-group crash: %d" (List.length report.Safety_checker.lost));
  Report.note "unacknowledged deliveries were replayed after recovery and committed";
  Report.note "exactly once (testable transactions absorb the duplicates)."

(* ---- §6 latency decomposition ---- *)

let measure_latencies ?(seed = 1L) ?uniform () =
  let params = Workload.Params.table4 in
  let sys =
    System.create ~seed ~params ~fd_config:Gcs.Failure_detector.light_config ?uniform
      ~trace_enabled:true (System.Dsm Dsm_replica.Group_safe_mode)
  in
  let engine = System.engine sys in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let generator = Workload.Generator.create params (Sim.Rng.split rng) in
  let submit () =
    let delegate = Sim.Rng.int rng params.Workload.Params.servers in
    System.submit sys ~delegate (Workload.Generator.next generator ~client:0)
  in
  let arrival = Workload.Arrival.open_poisson engine ~rng:(Sim.Rng.split rng) ~rate_tps:20. submit in
  System.run_for sys (sec 20.);
  Workload.Arrival.stop arrival;
  System.run_for sys (sec 3.);
  (* Mine the trace: broadcast -> first same-source deliver = abcast
     latency at the delegate; decide -> logged per server = log write
     latency (includes group-commit queueing). *)
  let broadcasts = Hashtbl.create 512 and decides = Hashtbl.create 2048 in
  let abcast = Sim.Stats.series "abcast_ms" and logw = Sim.Stats.series "log_ms" in
  List.iter
    (fun e ->
      match (e.Sim.Trace.kind, Sim.Trace.attr e "tx") with
      | "broadcast", Some tx -> Hashtbl.replace broadcasts (e.Sim.Trace.source, tx) e.Sim.Trace.time
      | "deliver", Some tx -> begin
          match Hashtbl.find_opt broadcasts (e.Sim.Trace.source, tx) with
          | Some t0 ->
            Sim.Stats.add abcast (Sim.Sim_time.span_to_ms (Sim.Sim_time.diff e.Sim.Trace.time t0));
            Hashtbl.remove broadcasts (e.Sim.Trace.source, tx)
          | None -> ()
        end
      | "decide", Some tx -> Hashtbl.replace decides (e.Sim.Trace.source, tx) e.Sim.Trace.time
      | "logged", Some tx -> begin
          match Hashtbl.find_opt decides (e.Sim.Trace.source, tx) with
          | Some t0 ->
            Sim.Stats.add logw (Sim.Sim_time.span_to_ms (Sim.Sim_time.diff e.Sim.Trace.time t0));
            Hashtbl.remove decides (e.Sim.Trace.source, tx)
          | None -> ()
        end
      | _ -> ())
    (Sim.Trace.entries (System.trace sys));
  (abcast, logw)

let latency ?seed () =
  Report.section "Latency decomposition (paper quotes: disk write ~8 ms, abcast ~1 ms)";
  let abcast, logw = measure_latencies ?seed () in
  Report.table ~header:[ "quantity"; "mean (ms)"; "p95 (ms)"; "samples" ]
    [
      [
        "atomic broadcast (send -> deliver at delegate)";
        Report.f2 (Sim.Stats.mean abcast);
        Report.f2 (Sim.Stats.percentile abcast 95.);
        string_of_int (Sim.Stats.count abcast);
      ];
      [
        "log write (decide -> durable, incl. group commit)";
        Report.f2 (Sim.Stats.mean logw);
        Report.f2 (Sim.Stats.percentile logw 95.);
        string_of_int (Sim.Stats.count logw);
      ];
    ];
  Report.note "moving the log write off the commit path and relying on the group is";
  Report.note "worth the difference between these two numbers per transaction."

(* ---- Observability: per-phase latency and the acknowledgement path ---- *)

let observability ?(seed = 1L) () =
  Report.section "Observability: per-phase latency and the ack path per technique";
  Report.note "one 20 s run per technique at 24 tps; percentiles are log-bucketed";
  Report.note "histogram midpoints (<= 1/16 relative error), phases delegate-side.";
  let points =
    Pool.map
      (fun technique -> run_load_point ~seed ~measure_s:20. technique ~load_tps:24.)
      System.all_techniques
  in
  let header =
    [
      "technique"; "commit p50"; "commit p95"; "read p50"; "abcast p50"; "certify p50";
      "wal p50"; "ack<disk"; "ack>disk";
    ]
  in
  let rows =
    List.map2
      (fun technique p ->
        let h name =
          match Obs.Registry.find_histogram p.registry name with
          | Some h -> h
          | None -> Obs.Histogram.create ()
        in
        [
          System.technique_name technique;
          Report.hist_pctl_ms (h "txn.commit_us") 0.5;
          Report.hist_pctl_ms (h "txn.commit_us") 0.95;
          Report.hist_pctl_ms (h "phase.read_us") 0.5;
          Report.hist_pctl_ms (h "phase.broadcast_us") 0.5;
          Report.hist_pctl_ms (h "phase.certify_us") 0.5;
          Report.hist_pctl_ms (h "phase.wal_us") 0.5;
          string_of_int (Obs.Registry.counter_value p.registry "txn.ack_before_disk");
          string_of_int (Obs.Registry.counter_value p.registry "txn.ack_after_disk");
        ])
      System.all_techniques points
  in
  Report.table ~header rows;
  Report.note "the ack-path counters are the paper's mechanism in two columns:";
  Report.note "group-safe (and 0-safe) acknowledge every update before any disk";
  Report.note "write (ack<disk), group-1-safe and stronger only after a flush";
  Report.note "(ack>disk) — the wal histogram stays populated either way, it just";
  Report.note "moves off the commit critical path."

(* A fixed, fully deterministic observability scenario: 3 servers running
   group-safe, ten staggered handwritten update transactions, samplers on.
   The golden exporter test and the CLI [obs] command both render exactly
   this run, so the artifacts are byte-stable across worker counts and
   machines. *)
let obs_demo ?(seed = 7L) () =
  let sys =
    System.create ~seed ~params:scenario_params ~obs_trace:true
      (System.Dsm Dsm_replica.Group_safe_mode)
  in
  System.attach_obs_samplers ~every:(ms 25.) sys;
  for i = 0 to 9 do
    let tx =
      Db.Transaction.make ~id:(1000 + i) ~client:(i mod 3)
        [ Db.Op.Read (3 * i mod 20); Db.Op.Write (i, i + 1); Db.Op.Write (20 + i, 1) ]
    in
    System.submit sys ~delegate:(i mod 3) tx;
    System.run_for sys (ms 40.)
  done;
  System.run_for sys (sec 1.);
  let trace =
    Obs.Chrome_trace.to_string
      [
        {
          Obs.Chrome_trace.pid = 0;
          name = System.technique_name (System.technique sys);
          events = Obs.Tracer.events (System.obs_tracer sys);
        };
      ]
  in
  let metrics =
    Obs.Export.to_json
      [
        {
          Obs.Export.name = System.technique_name (System.technique sys);
          registry = System.obs_registry sys;
        };
      ]
  in
  (trace, metrics)

(* ---- §7 scaling analysis ---- *)

let section7 () =
  Report.section "Section 7: lazy inconsistency risk grows with n, group-safe risk shrinks";
  Report.note "per-server load held constant (10/3 tps per server, = 30 tps at n = 9),";
  Report.note "so the trend isolates what adding sites does.";
  let params = Workload.Params.table4 in
  let per_server_tps = 10. /. 3. in
  let header =
    [ "servers"; "lazy conflicts/s (analytic)"; "P(group failure), server down 1%" ]
  in
  let rows =
    List.map
      (fun n ->
        [
          string_of_int n;
          Printf.sprintf "%.3f"
            (Analysis.lazy_conflict_rate params
               ~load_tps:(per_server_tps *. float_of_int n)
               ~window_s:0.12 ~n);
          Printf.sprintf "%.2e" (Analysis.group_failure_probability ~n ~server_unavailability:0.01);
        ])
      [ 3; 5; 7; 9; 11; 15 ]
  in
  Report.table ~header rows;
  Report.note "opposite monotonicity: adding servers makes lazy replication riskier";
  Report.note "and group-safe replication safer (paper §7).";
  (* Empirical side: count the actual hazard as it happens — remote
     writesets applied while a concurrent local update of the same item had
     already committed (neither site saw the other). *)
  let measured_s = 60. in
  let conflicts n =
    let params = { params with Workload.Params.servers = n } in
    let sys =
      System.create ~params ~fd_config:Gcs.Failure_detector.light_config ~trace_enabled:false
        (System.Lazy Lazy_replica.One_safe_mode)
    in
    let engine = System.engine sys in
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let generator = Workload.Generator.create params (Sim.Rng.split rng) in
    let submit () =
      let delegate = Sim.Rng.int rng n in
      System.submit sys ~delegate (Workload.Generator.next generator ~client:0)
    in
    let arrival =
      Workload.Arrival.open_poisson engine ~rng:(Sim.Rng.split rng)
        ~rate_tps:(10. /. 3. *. float_of_int n)
        submit
    in
    System.run_for sys (sec measured_s);
    Workload.Arrival.stop arrival;
    System.run_for sys (sec 3.);
    let total = ref 0 and divergent = (Safety_checker.analyse sys).Safety_checker.divergent_items in
    for s = 0 to n - 1 do
      match System.lazy_replica sys s with
      | Some r -> total := !total + Lazy_replica.cross_site_conflicts r
      | None -> ()
    done;
    (float_of_int !total /. measured_s, divergent)
  in
  Report.note "";
  Report.note
    (Printf.sprintf
       "empirical: cross-site concurrent conflicts under lazy, %.0f s, 10/3 tps per server"
       measured_s);
  Report.table ~header:[ "servers"; "conflicts/s (measured)"; "divergent items at the end" ]
    (Pool.map
       (fun n ->
         let rate, divergent = conflicts n in
         [ string_of_int n; Printf.sprintf "%.3f" rate; string_of_int divergent ])
       [ 3; 6; 9 ]);
  Report.note "group-communication techniques keep both at zero by construction."

(* ---- Ablations ---- *)

let ablation_group_commit ?(seed = 1L) () =
  Report.section "Ablation: group commit (batched log flushes) for group-1-safe";
  let run gc =
    let params = { Workload.Params.table4 with Workload.Params.group_commit = gc } in
    run_load_point ~seed ~params (System.Dsm Dsm_replica.Group_one_safe_mode) ~load_tps:30.
  in
  let on, off =
    match Pool.map run [ true; false ] with
    | [ on; off ] -> (on, off)
    | _ -> assert false
  in
  Report.table ~header:[ "group commit"; "mean (ms)"; "p95 (ms)"; "throughput" ]
    [
      [ "on"; Report.f1 on.mean_ms; Report.f1 on.p95_ms; Report.f1 on.throughput_tps ];
      [ "off"; Report.f1 off.mean_ms; Report.f1 off.p95_ms; Report.f1 off.throughput_tps ];
    ];
  Report.note "without batching every decision record is its own flush and the log";
  Report.note "disk becomes the bottleneck."

let ablation_apply_factor ?(seed = 1L) () =
  Report.section "Ablation: ordered-apply coalescing factor (group-safe saturation)";
  let header = [ "factor"; "30 tps (ms)"; "36 tps (ms)"; "40 tps (ms)" ] in
  let factors = [ 0.5; 0.65; 1.0 ] and loads = [ 30.; 36.; 40. ] in
  let cells =
    Array.of_list
      (Pool.map
         (fun (factor, load) ->
           Report.f1
             (run_load_point ~seed ~apply_write_factor:factor
                (System.Dsm Dsm_replica.Group_safe_mode) ~load_tps:load)
               .mean_ms)
         (List.concat_map (fun f -> List.map (fun l -> (f, l)) loads) factors))
  in
  let rows =
    List.mapi
      (fun i factor ->
        [ Printf.sprintf "%.2f" factor; cells.(3 * i); cells.((3 * i) + 1); cells.((3 * i) + 2) ])
      factors
  in
  Report.table ~header rows;
  Report.note "total order forces sequential writeset application; how much of the";
  Report.note "write-back scheduling freedom survives decides where the pipeline";
  Report.note "saturates (DESIGN.md, decision 3)."

let scaleout ?(seed = 1L) () =
  Report.section "Scale-out: response time vs number of servers (constant per-server load)";
  Report.note "full replication applies every writeset on every server: added servers";
  Report.note "buy read capacity and availability, not write capacity (paper §7 frames";
  Report.note "what they buy in safety).";
  let per_server_tps = 10. /. 3. in
  let header = [ "servers"; "group-safe (ms)"; "lazy 1-safe (ms)"; "total load (tps)" ] in
  let ns = [ 3; 5; 7; 9; 12 ] in
  (* One work item per (cluster size, technique) cell. *)
  let cells =
    Array.of_list
      (Pool.map
         (fun (n, technique) ->
           let params = { Workload.Params.table4 with Workload.Params.servers = n } in
           let load_tps = per_server_tps *. float_of_int n in
           Report.f1 (run_load_point ~seed ~params ~measure_s:30. technique ~load_tps).mean_ms)
         (List.concat_map
            (fun n ->
              [
                (n, System.Dsm Dsm_replica.Group_safe_mode);
                (n, System.Lazy Lazy_replica.One_safe_mode);
              ])
            ns))
  in
  let rows =
    List.mapi
      (fun i n ->
        [
          string_of_int n;
          cells.(2 * i);
          cells.((2 * i) + 1);
          Printf.sprintf "%.0f" (per_server_tps *. float_of_int n);
        ])
      ns
  in
  Report.table ~header rows

let recovery ?(seed = 1L) () =
  Report.section "Recovery: catch-up after an outage (state transfer vs log replay)";
  Report.note "group-safe recovers by application state transfer from a live member;";
  Report.note "2-safe recovers from its own durable log plus replay of what it missed.";
  let measure technique downtime_s =
    let params =
      { Workload.Params.table4 with Workload.Params.servers = 3; items = 2000 }
    in
    let sys =
      System.create ~seed ~params ~fd_config:Gcs.Failure_detector.light_config
        ~trace_enabled:false technique
    in
    let engine = System.engine sys in
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let generator = Workload.Generator.create params (Sim.Rng.split rng) in
    let last_tx = ref (-1) in
    let submit () =
      let delegate = Sim.Rng.int rng 3 in
      let tx = Workload.Generator.next generator ~client:0 in
      System.submit sys ~delegate
        ~on_response:(fun o ->
          if o = Db.Testable_tx.Committed then last_tx := max !last_tx tx.Db.Transaction.id)
        tx
    in
    let arrival = Workload.Arrival.open_poisson engine ~rng:(Sim.Rng.split rng) ~rate_tps:15. submit in
    System.run_for sys (sec 5.);
    System.crash sys 2;
    System.run_for sys (sec downtime_s);
    let target = !last_tx in
    let restart_at = System.now sys in
    System.recover sys 2;
    (* Poll until the replica is serving again and holds the last
       transaction committed before its restart. *)
    let caught_up = ref None in
    let attempts = ref 0 in
    while !caught_up = None && !attempts < 600 do
      incr attempts;
      System.run_for sys (ms 50.);
      if System.serving sys 2 && (target < 0 || System.committed_on sys ~server:2 target) then
        caught_up := Some (Sim.Sim_time.span_to_ms (Sim.Sim_time.diff (System.now sys) restart_at))
    done;
    Workload.Arrival.stop arrival;
    match !caught_up with Some x -> Report.f1 x | None -> ">30000"
  in
  let header = [ "downtime (s)"; "group-safe catch-up (ms)"; "2-safe catch-up (ms)" ] in
  let downtimes = [ 1.; 5.; 15. ] in
  let cells =
    Array.of_list
      (Pool.map
         (fun (technique, d) -> measure technique d)
         (List.concat_map
            (fun d ->
              [
                (System.Dsm Dsm_replica.Group_safe_mode, d);
                (System.Dsm Dsm_replica.Two_safe_mode, d);
              ])
            downtimes))
  in
  let rows =
    List.mapi
      (fun i d -> [ Printf.sprintf "%.0f" d; cells.(2 * i); cells.((2 * i) + 1) ])
      downtimes
  in
  Report.table ~header rows;
  Report.note "state transfer ships the current state in one step, so group-safe";
  Report.note "catch-up is outage-length independent; log replay re-processes the";
  Report.note "missed writesets one by one, so 2-safe catch-up grows with downtime.";
  Report.note "(the paper's §4 end-to-end broadcast mandates log-based recovery.)"

let eager_comparison ?(seed = 1L) () =
  Report.section "Eager 2PC baseline vs group communication (paper, introduction)";
  Report.note "the traditional alternative: eager update-everywhere over two-phase";
  Report.note "commit — '2-safe, slow and deadlock prone'. Same Table 4 system.";
  let loads = [ 10.; 15.; 20. ] in
  let techniques =
    [
      (System.Dsm Dsm_replica.Group_safe_mode, "group-safe (abcast)");
      (System.Dsm Dsm_replica.Two_safe_mode, "2-safe (e2e abcast)");
      (System.Two_pc, "eager 2PC");
    ]
  in
  (* One work item per (technique, load) pair; each yields its two cells. *)
  let cells =
    Pool.map
      (fun (technique, load) ->
        let p = run_load_point ~seed ~measure_s:30. technique ~load_tps:load in
        [ Report.f1 p.mean_ms; Report.pct p.abort_rate ])
      (List.concat_map (fun (t, _) -> List.map (fun l -> (t, l)) loads) techniques)
  in
  let cells = Array.of_list cells in
  let nloads = List.length loads in
  let header =
    "technique"
    :: List.concat_map
         (fun l -> [ Printf.sprintf "%.0f tps (ms)" l; "aborts" ])
         loads
  in
  Report.table ~header
    (List.mapi
       (fun i (_, name) ->
         name :: List.concat (List.init nloads (fun j -> cells.((i * nloads) + j))))
       techniques);
  Report.note "2PC pays a disk-forced prepare round on every server inside the";
  Report.note "response path, and its aborts are distributed deadlocks resolved by";
  Report.note "timeout — the group-communication techniques abort only on";
  Report.note "certification conflicts and never block."

let ablation_buffer ?(seed = 1L) () =
  Report.section "Ablation: buffer hit ratio (read phase sensitivity)";
  Report.note "the delegate's read phase dominates every technique's base response;";
  Report.note "Table 4 fixes the hit ratio at 20%.";
  let header = [ "hit ratio"; "group-safe (ms)"; "lazy 1-safe (ms)" ] in
  let ratios = [ 0.0; 0.2; 0.5; 0.8 ] in
  let cells =
    Array.of_list
      (Pool.map
         (fun (ratio, technique) ->
           let params =
             { Workload.Params.table4 with Workload.Params.buffer_hit_ratio = ratio }
           in
           Report.f1 (run_load_point ~seed ~params ~measure_s:30. technique ~load_tps:28.).mean_ms)
         (List.concat_map
            (fun ratio ->
              [
                (ratio, System.Dsm Dsm_replica.Group_safe_mode);
                (ratio, System.Lazy Lazy_replica.One_safe_mode);
              ])
            ratios))
  in
  let rows =
    List.mapi
      (fun i ratio ->
        [ Printf.sprintf "%.0f%%" (100. *. ratio); cells.(2 * i); cells.((2 * i) + 1) ])
      ratios
  in
  Report.table ~header rows;
  Report.note "a warmer buffer compresses everyone's response; the constant gap in";
  Report.note "group-safe's favour is the disk write it moved off the commit path."

let ablation_loss ?(seed = 1L) () =
  Report.section "Ablation: message loss (ordering-protocol robustness)";
  Report.note "lost protocol messages are repaired by retransmission and catch-up:";
  Report.note "the cost shows up as tail latency, never as lost transactions.";
  let header = [ "loss"; "gs mean (ms)"; "gs p95 (ms)"; "throughput (tps)" ] in
  let rows =
    Pool.map
      (fun drop ->
        let params = { Workload.Params.table4 with Workload.Params.drop_probability = drop } in
        let p =
          run_load_point ~seed ~params ~measure_s:30.
            (System.Dsm Dsm_replica.Group_safe_mode) ~load_tps:24.
        in
        [
          Printf.sprintf "%.1f%%" (100. *. drop);
          Report.f1 p.mean_ms;
          Report.f1 p.p95_ms;
          Report.f1 p.throughput_tps;
        ])
      [ 0.0; 0.001; 0.01 ]
  in
  Report.table ~header rows

let ablation_uniformity ?(seed = 1L) () =
  Report.section "Ablation: uniform vs non-uniform delivery (DESIGN.md, decision 1)";
  let uniform_ab, _ = measure_latencies ~seed () in
  let optimistic_ab, _ = measure_latencies ~seed ~uniform:false () in
  Report.table ~header:[ "delivery"; "abcast mean (ms)"; "p95 (ms)" ]
    [
      [ "uniform (majority-stable)"; Report.f2 (Sim.Stats.mean uniform_ab);
        Report.f2 (Sim.Stats.percentile uniform_ab 95.) ];
      [ "non-uniform (optimistic)"; Report.f2 (Sim.Stats.mean optimistic_ab);
        Report.f2 (Sim.Stats.percentile optimistic_ab 95.) ];
    ];
  (* What the saved round trip costs: in a minority partition, an
     optimistic leader acknowledges a transaction no other server will ever
     learn — group-safety's Table 2 cell breaks with a single crash. *)
  let run_partitioned ~uniform =
    let sys =
      System.create ~seed ~params:scenario_params ~uniform
        (System.Dsm Dsm_replica.Group_safe_mode)
    in
    (* S0 establishes leadership with everyone reachable, then gets cut
       off. An established optimistic leader keeps assigning and delivering
       in its own partition; a uniform one stalls at the missing quorum. *)
    System.run_for sys (sec 1.);
    System.partition sys [ [ 0 ]; [ 1; 2 ] ];
    System.run_for sys (ms 100.);
    let acked = ref false in
    System.submit sys ~delegate:0
      ~on_response:(fun o ->
        if o = Db.Testable_tx.Committed then acked := true;
        System.crash sys 0)
      write_only_tx;
    System.run_for sys (sec 2.);
    System.heal sys;
    System.run_for sys (sec 5.);
    let report = Safety_checker.analyse sys in
    if not !acked then "not acknowledged (stays safe)"
    else if report.Safety_checker.lost = [] then "acknowledged, survived"
    else "acknowledged, then LOST with one crash (guarantee broken)"
  in
  Report.table ~header:[ "delivery"; "isolated delegate + single crash" ]
    [
      [ "uniform"; run_partitioned ~uniform:true ];
      [ "non-uniform"; run_partitioned ~uniform:false ];
    ];
  Report.note "uniform agreement is what lets the group carry durability: without";
  Report.note "it, group-safety costs one crash, not a group failure."

(* ---- Certification: every checker tier is data for one function ---- *)

(* An artifact is a corpus entry: the technique directive and the shrunk
   schedule in Check.Schedule.serialize form, then the report and the full
   trace of the shrunk run as comment lines, which Check.Schedule.parse
   skips. *)
let write_counterexample ~path ~what (r : Check.Explorer.result) =
  match r.Check.Explorer.counterexample with
  | None -> ()
  | Some c ->
    let comment text =
      String.split_on_char '\n' text
      |> List.filter (fun line -> line <> "")
      |> List.map (fun line -> "# " ^ line ^ "\n")
      |> String.concat ""
    in
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc "# technique=%s\n%s%s#\n# full trace of the shrunk schedule:\n%s"
          (System.technique_name r.Check.Explorer.config.Check.Explorer.technique)
          (Check.Schedule.serialize c.Check.Explorer.shrunk)
          (comment (Check.Explorer.render_result r))
          (comment c.Check.Explorer.outcome.Check.Explorer.trace));
    Report.note (Printf.sprintf "%s written to %s" what path)

(* Runs one checker tier. A check is its verdict-table label and a thunk
   that prints its own report and says whether it passed. Every check
   runs, in order — a failed one does not stop the rest — and one table
   lists them all. *)
let certification ~title ~notes checks =
  Report.section title;
  List.iter Report.note notes;
  let verdicts = List.map (fun (label, check) -> (label, check ())) checks in
  Report.table ~header:[ "check"; "verdict" ]
    (List.map (fun (label, ok) -> [ label; (if ok then "ok" else "FAILED") ]) verdicts);
  List.for_all snd verdicts

(* One exploration: prints its report and writes its counterexample, if
   it found one, to the [(path, what)] artifact. *)
let explored ?artifact ?max_exhaustive_events ?max_random_events ~seed ~budget config =
  let r = Check.Explorer.explore ?max_exhaustive_events ?max_random_events ~seed ~budget config in
  Format.printf "%s@.@." (Check.Explorer.render_result r);
  Option.iter (fun (path, what) -> write_counterexample ~path ~what r) artifact;
  r

let clean (r : Check.Explorer.result) = Option.is_none r.Check.Explorer.counterexample

(* Oracle mutations re-break a protocol bug on every server. *)
let break_all f sys =
  for i = 0 to System.n_servers sys - 1 do
    f sys i
  done

let group_safe = System.Dsm Dsm_replica.Group_safe_mode
let two_safe = System.Dsm Dsm_replica.Two_safe_mode

(* ---- Schedule exploration (the checking subsystem's entry point) ---- *)

let explore ?(seed = 42L) ?(budget = 500) () =
  let module E = Check.Explorer in
  let loss technique = E.default_config ~predicate:E.Any_loss technique in
  (* The end-to-end and 2PC configurations must not lose under any
     schedule at all. *)
  let certified technique () = clean (explored ~seed ~budget (loss technique)) in
  certification
    ~title:"Schedule exploration: Fig. 5 rediscovery and loss-freedom certification"
    ~notes:
      [
        "each configuration replays seeded crash/recover/delay schedules and";
        "asks the safety oracle after full recovery; failures are shrunk to a";
        "minimal counterexample (see docs/CHECKING.md).";
      ]
    [
      (* Classical atomic broadcast must lose: the explorer has to
         rediscover the Fig. 5 whole-group crash and shrink it to a
         handful of events. *)
      ( "classical abcast: Fig. 5 loss rediscovered, shrunk to <= 6 events",
        fun () ->
          match (explored ~seed ~budget (loss group_safe)).E.counterexample with
          | Some c -> Check.Schedule.event_count c.E.shrunk <= 6
          | None -> false );
      ("e2e broadcast (2-safe): no loss in any explored schedule", certified two_safe);
      ("eager 2PC: no loss in any explored schedule", certified System.Two_pc);
      (* And no technique may ever lose in a way its advertised level
         forbids (Tables 2/3). *)
      ( "all techniques: no loss forbidden by the advertised level",
        fun () ->
          List.map
            (fun technique ->
              clean
                (explored ~seed ~budget:(Int.max 1 (budget / 4))
                   (E.default_config ~predicate:E.Violation technique)))
            System.all_techniques
          |> List.for_all Fun.id );
    ]

(* ---- Nemesis: network faults + healing convergence ---- *)

let nemesis ?(seed = 42L) ?(budget = 500) ?(counterexample_path = "nemesis-counterexample.txt") ()
    =
  let module E = Check.Explorer in
  (* All of [budget] goes to seeded storms (exhaustive single-fault windows
     are covered by the unit tests); identical seeds replay identical
     storms, so a CI failure reproduces locally byte for byte. *)
  let certified ?tuning technique () =
    clean
      (explored ~artifact:(counterexample_path, "shrunk counterexample trace")
         ~max_exhaustive_events:0 ~max_random_events:3 ~seed ~budget
         (E.default_config ~predicate:E.Any_loss ~nemesis:true ?tuning technique))
  in
  certification ~title:"Nemesis: partition/loss/duplication storms with healing convergence"
    ~notes:
      [
        "each storm mixes crashes with network faults (a minority partition and";
        "heal, a loss window, duplicated deliveries); after the horizon every";
        "fault heals, and the convergence oracle demands every acknowledged";
        "update on every serving server plus a committing probe (docs/CHECKING.md).";
      ]
    [
      ( Printf.sprintf "e2e broadcast (2-safe): %d nemesis storms loss-free and convergent" budget,
        certified two_safe );
      ( Printf.sprintf "eager 2PC: %d nemesis storms loss-free and convergent" budget,
        certified System.Two_pc );
      (* The tuned broadcast engines must survive the same storms: batched
         in-flight Accepts across crashes and partitions (the PR 2
         retransmit interaction), and ring circulations cut mid-way by the
         nemesis. *)
      ( Printf.sprintf "2-safe, batched+pipelined engine: %d storms loss-free and convergent"
          budget,
        certified ~tuning:(Gcs.Bcast_tuning.batched ()) two_safe );
      ( Printf.sprintf "2-safe, ring engine: %d storms loss-free and convergent" budget,
        certified ~tuning:(Gcs.Bcast_tuning.ring ()) two_safe );
      (* The directed scenario: a minority partition must stall —
         acknowledge and apply nothing while cut off — then catch up after
         the heal. *)
      ( "group-safe minority partition: stalled, no divergence, converged after heal",
        fun () ->
          let stall = E.minority_stall (E.default_config ~nemesis:true group_safe) in
          Format.printf "%a@.@." E.pp_stall stall;
          stall.E.ok );
    ]

(* ---- Liveness: fair storms, eventual decision, leader takeover ---- *)

let liveness ?(seed = 42L) ?(budget = 500) ?max_decision_us
    ?(counterexample_path = "liveness-counterexample.txt") () =
  let module E = Check.Explorer in
  let storms ?artifact ?tuning ?mutate technique =
    explored ?artifact ~max_exhaustive_events:0 ~max_random_events:3 ~seed ~budget
      (E.default_config ~liveness:true ?max_decision_us ?tuning ?mutate technique)
  in
  (* Mutation rediscovery: re-break each of PR 2's protocol bugs through
     the oracle hooks and demand that the fair storms find it again and
     shrink it to a schedule that is still fair — a liveness check that
     cannot catch a known wedged-forever bug is not checking anything. *)
  let rediscovered label technique mutate () =
    let r = storms ~mutate:(break_all mutate) technique in
    match r.E.counterexample with
    | Some c ->
      let fair = Check.Schedule.fair ~horizon:r.E.config.E.horizon c.E.shrunk in
      if not fair then
        Report.note (Printf.sprintf "%s: counterexample shrunk to an UNFAIR schedule" label);
      fair
    | None ->
      Report.note (Printf.sprintf "%s: mutation NOT rediscovered in %d storms" label budget);
      false
  in
  (* The fixed tree must certify clean over the full storm budget on the
     loss-free configurations (the group-safe classical pair legitimately
     loses on whole-group crashes, which fair storms do generate — its
     liveness evidence comes from the takeover scenario below). *)
  let certified ?tuning technique () =
    clean
      (storms ~artifact:(counterexample_path, "shrunk liveness counterexample") ?tuning technique)
  in
  (* The takeover family: repeatedly kill the ordering leader mid-broadcast
     and demand a successor that re-drives the dead leader's in-flight
     slots — one kill at a time, so the group never fails and even the
     classical (group-safe) stack owes full liveness. *)
  let takeover ?tuning label technique () =
    let t = E.leader_takeover (E.default_config ~liveness:true ?tuning technique) in
    Format.printf "%s takeovers:@.%a@.@." label E.pp_takeover t;
    t.E.ok
  in
  certification ~title:"Liveness: fairness-constrained storms with the eventual-decision oracle"
    ~notes:
      ([
         "each storm draws only fair schedules (every crash recovered, every";
         "partition healed, every loss window closed by the horizon); after";
         "quiescence the liveness oracle demands a decision for every owed";
         "submission and a re-elected leader, on top of the safety and";
         "convergence oracles (docs/CHECKING.md, 'Liveness').";
       ]
      @
      match max_decision_us with
      | None -> []
      | Some b ->
        [
          Printf.sprintf "decision bound: %.1f ms — decided-but-late counts as a failure"
            (float_of_int b /. 1000.);
        ])
    [
      ( "mutation: leader never retransmits Accepts -> rediscovered, fair shrink",
        rediscovered "no-accept-retransmit mutation" two_safe System.break_no_accept_retransmit );
      ( "mutation: 2PC answers decisions before durable -> rediscovered, fair shrink",
        rediscovered "2PC early-decision mutation" System.Two_pc System.break_early_decision );
      ( Printf.sprintf "e2e broadcast (2-safe): %d fair storms decided and live" budget,
        certified two_safe );
      ( Printf.sprintf "eager 2PC: %d fair storms decided and live" budget,
        certified System.Two_pc );
      (* The batched engine holds several submissions inside one in-flight
         instance: a leader crash or dropped Accept now wedges a whole
         batch, so the eventual-decision oracle re-proves the retransmit
         path for it. *)
      ( Printf.sprintf "2-safe, batched+pipelined engine: %d fair storms decided and live"
          budget,
        certified ~tuning:(Gcs.Bcast_tuning.batched ()) two_safe );
      ( "group-safe: repeated leader kills handed over, all decided",
        takeover "group-safe" group_safe );
      ("2-safe: repeated leader kills handed over, all decided", takeover "2-safe" two_safe);
      (* Ring dissemination's coordinator is the leader: killing it
         mid-ring leaves a circulation with no home, which the successor
         must re-drive. *)
      ( "group-safe ring engine: repeated leader kills handed over, all decided",
        takeover ~tuning:(Gcs.Bcast_tuning.ring ()) "group-safe (ring engine)" group_safe );
    ]

(* ---- Storage faults: torn writes, lying fsyncs, the durability oracle ---- *)

let storage ?(seed = 42L) ?(budget = 500)
    ?(counterexample_path = "storage-counterexample.txt") () =
  let module E = Check.Explorer in
  let storms ?artifact ?tuning ?mutate technique =
    explored ?artifact ~max_exhaustive_events:0 ~max_random_events:3 ~seed ~budget
      (E.default_config ~storage:true ?tuning ?mutate technique)
  in
  (* The storm certification: the group-safe classical stack must come out
     clean — it may lose, but only where all replicas lost the record —
     and so must the 2-safe and 2PC stacks, whose only permitted losses
     are total-betrayal ones. *)
  let certified ?tuning technique () =
    clean
      (storms ~artifact:(counterexample_path, "shrunk storage counterexample") ?tuning technique)
  in
  (* Directed: every disk lies, then the whole group crashes. Every level
     loses the acked transactions; the oracle must report the loss and
     classify it as permitted — by the delegate crash at 1-safe (the
     paper's flagged-but-allowed window), the group failure at
     group-safe, and only the total betrayal at 2-safe. *)
  let lie technique () =
    let l = E.fsync_lie_group_crash (E.default_config ~storage:true technique) in
    Format.printf "fsync-lie group crash (%s):@.%a@.@." (System.technique_name technique)
      E.pp_lie l;
    l.E.f_ok
  in
  certification ~title:"Storage faults: torn writes, lying fsyncs, and the durability oracle"
    ~notes:
      [
        "each storm mixes crashes with disk faults (torn tail writes, lying";
        "fsyncs — sometimes on every replica at once — record corruption,";
        "slow-disk and disk-full windows); after full recovery the durability";
        "oracle checks that every loss was permitted by the advertised level or";
        "by total storage betrayal, and that every injected torn tail was";
        "repaired and every corruption detected (docs/CHECKING.md).";
      ]
    [
      ( Printf.sprintf "classical abcast (group-safe): %d storage storms certified clean" budget,
        certified group_safe );
      ( Printf.sprintf "e2e broadcast (2-safe): %d storage storms certified clean" budget,
        certified two_safe );
      ( Printf.sprintf "eager 2PC: %d storage storms certified clean" budget,
        certified System.Two_pc );
      (* A batched engine multiplies what one torn or lying WAL record can
         cover — a whole batch of acknowledged transactions — so the
         durability oracle re-certifies the batched stack under the same
         disk-fault storms. *)
      ( Printf.sprintf "group-safe, batched+pipelined engine: %d storms certified clean" budget,
        certified ~tuning:(Gcs.Bcast_tuning.batched ()) group_safe );
      (* Mutation rediscovery: un-harden the WAL (recovery skips checksums)
         and demand the storms notice — a corruption arm whose recovery
         scan detects nothing fails the oracle's detected = scanned
         bookkeeping. *)
      ( "mutation: recovery skips checksums -> rediscovered",
        fun () ->
          let r = storms ~mutate:(break_all System.break_skip_checksum) group_safe in
          let found = not (clean r) in
          if not found then
            Report.note
              (Printf.sprintf "skip-checksum mutation NOT rediscovered in %d storms" budget);
          found );
      (* Directed: tear the leader's WAL tail every round; recovery must
         repair every tear and say so in its repair report. *)
      ( "group-safe: every torn leader tail repaired on recovery",
        fun () ->
          let torn = E.torn_leader_tail (E.default_config ~storage:true group_safe) in
          Format.printf "torn leader tail (group-safe):@.%a@.@." E.pp_torn torn;
          torn.E.t_ok );
      ( "1-safe: fsync-lie group crash loses an acked tx, flagged-but-allowed",
        lie (System.Lazy Lazy_replica.One_safe_mode) );
      ("group-safe: fsync-lie group crash loss permitted by group failure", lie group_safe);
      ("2-safe: fsync-lie group crash loss permitted only by total betrayal", lie two_safe);
    ]

(* ---- Shard-out study (docs/SHARDING.md) ---- *)

let default_shard_counts = [ 1; 2; 4; 8; 16; 32 ]

(* Aggregate committed throughput vs shard count at a fixed offered load
   chosen far past one group's saturation: a single 3-server group can
   serve only its ceiling, while [k] shards split the load [k] ways and
   serve nearly all of it — the scaling the paper's full-replication
   techniques cannot reach (every server applies every write). The cross
   rows tax the fast path with 2PC-certified multi-shard transactions. *)
let shardout ?(seed = 1L) ?(counts = default_shard_counts) ?(load_tps = 320.)
    ?(measure_s = 10.) ?(cross_fraction = 0.1) ?(zipf_s = 1.1) () =
  Report.section "Shard-out: aggregate committed throughput vs shard count";
  let technique = System.Dsm Dsm_replica.Group_safe_mode in
  let params = { Workload.Params.table4 with Workload.Params.servers = 3; items = 4096 } in
  Report.note
    (Printf.sprintf
       "group-safe, 3 servers per shard, %.0f tps offered in total, Zipf(%.2f) keys;" load_tps
       zipf_s);
  Report.note "local rows: every transaction on its home shard (fast path only);";
  Report.note
    (Printf.sprintf "cross rows: %.0f%% of submissions also write the next shard's range (2PC)."
       (100. *. cross_fraction));
  let run ~cross shards =
    run_sharded_load_point ~seed ~params ~warmup_s:2. ~measure_s ~shards
      ~cross_fraction:(if cross then cross_fraction else 0.)
      ~zipf_s technique ~load_tps
  in
  let cells = List.map (fun c -> (c, run ~cross:false c, run ~cross:true c)) counts in
  let header =
    [
      "shards"; "servers"; "local tput(tps)"; "local mean(ms)"; "cross tput(tps)";
      "cross mean(ms)"; "cross abort";
    ]
  in
  let rows =
    List.map
      (fun (c, local, cross) ->
        [
          string_of_int c;
          string_of_int (c * 3);
          Report.f1 local.throughput_tps;
          Report.f1 local.mean_ms;
          Report.f1 cross.throughput_tps;
          Report.f1 cross.mean_ms;
          Report.pct cross.abort_rate;
        ])
      cells
  in
  Report.table ~header rows;
  (match (List.assoc_opt 1 (List.map (fun (c, l, _) -> (c, l)) cells),
          List.assoc_opt 8 (List.map (fun (c, l, _) -> (c, l)) cells))
   with
  | Some one, Some eight when one.throughput_tps > 0. ->
    let ratio = eight.throughput_tps /. one.throughput_tps in
    Report.note
      (Printf.sprintf "shard-local scaling, 8 shards vs 1: %.1fx aggregate committed throughput%s"
         ratio
         (if ratio >= 4. then " (>= 4x)" else " (< 4x!)"))
  | _ -> ())

(* ---- Sharded storm certification ---- *)

let shard_storms ?(seed = 42L) ?(budget = 500) ?(shards = 2) () =
  certification ~title:"Sharded storms: per-shard oracles + cross-shard 2PC audit"
    ~notes:
      [
        Printf.sprintf
          "%d-shard deployments, 3 servers per shard; every second transaction cross-shard;"
          shards;
        "each storm mixes crashes, whole-shard isolations, cross-group cuts and loss windows;";
        "verdict per run: every shard durability-clean and convergent, every committed";
        "cross-shard transaction atomic, losses only where the level permits them.";
      ]
    [
      ( Printf.sprintf "2-safe + eager 2PC: %d sharded storms each certified clean" budget,
        fun () ->
          List.map
            (fun technique ->
              let cfg = Shard.Shard_check.default_config ~shards ~cross_every:2 technique in
              let r = Shard.Shard_check.storm ~seed ~budget cfg in
              Printf.printf "%s:\n%s\n%!" (System.technique_name technique)
                (Shard.Shard_check.render_result r);
              Option.is_none r.Shard.Shard_check.counterexample)
            [ two_safe; System.Two_pc ]
          |> List.for_all Fun.id );
    ]

(* Wall clock and simulated events per experiment section: recorded into
   [Report]'s timing registry so the benchmark trajectory (BENCH_*.json)
   gets per-section visibility rather than one end-to-end total. *)
let timed section f =
  let t0 =
    (Unix.gettimeofday ()
    [@lint.allow "D-wallclock"
      "per-section timings report real elapsed time to the benchmark \
       trajectory; they never feed back into simulation logic"])
  in
  let e0 = Sim.Engine.global_executed () in
  f ();
  Report.record_timing ~section
    ~wall_s:
      ((Unix.gettimeofday ()
       [@lint.allow "D-wallclock"
         "per-section timings report real elapsed time to the benchmark \
          trajectory; they never feed back into simulation logic"])
      -. t0)
    ~events:(Sim.Engine.global_executed () - e0)

let all ?(seed = 1L) ?(fast = false) () =
  Report.reset_timings ();
  timed "table4" (fun () -> table4 ());
  timed "table1" (fun () -> table1 ());
  timed "table2" (fun () -> table2 ~seed ());
  timed "table3" (fun () -> table3 ~seed ());
  timed "fig5" (fun () -> fig5 ~seed ());
  timed "fig7" (fun () -> fig7 ~seed ());
  timed "latency" (fun () -> latency ~seed ());
  timed "observability" (fun () -> observability ~seed ());
  timed "fig9" (fun () ->
      if fast then fig9 ~seed ~loads:[ 20.; 30.; 40. ] ~measure_s:20. () else fig9 ~seed ());
  timed "broadcast_ceiling" (fun () ->
      if fast then broadcast_ceiling ~seed ~loads:[ 40.; 640.; 1600. ] ~measure_s:10. ()
      else broadcast_ceiling ~seed ());
  timed "shardout" (fun () ->
      if fast then shardout ~seed ~counts:[ 1; 2; 4; 8 ] ~measure_s:5. () else shardout ~seed ());
  if not fast then timed "closed_loop" (fun () -> closed_loop ~seed ());
  timed "section7" (fun () -> section7 ());
  timed "scaleout" (fun () -> scaleout ~seed ());
  timed "recovery" (fun () -> recovery ~seed ());
  timed "eager_comparison" (fun () -> eager_comparison ~seed ());
  timed "ablation_group_commit" (fun () -> ablation_group_commit ~seed ());
  timed "ablation_apply_factor" (fun () -> ablation_apply_factor ~seed ());
  timed "ablation_buffer" (fun () -> ablation_buffer ~seed ());
  timed "ablation_loss" (fun () -> ablation_loss ~seed ());
  timed "ablation_uniformity" (fun () -> ablation_uniformity ~seed ());
  Report.timing_summary ()
