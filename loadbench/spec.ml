(* The benchmark's definition: workload ladders and sizes, metric names and
   units. BENCHMARK.json at the repository root mirrors the names, units and
   directions; `workloads.exe --smoke BENCHMARK.json` fails when the two
   drift apart. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  modelled : bool;
      (** a virtual-clock quantity: identical on every run of the same code
          and seed, so compared exactly. *)
}

let m ?(modelled = false) name unit_ better = { name; unit_; better; modelled }

(* Printed by an untraced run, on every workload. *)
let end_to_end =
  [
    m ~modelled:true "commit_p50_ms" "ms" Lower;
    m ~modelled:true "commit_p99_ms" "ms" Lower;
    m ~modelled:true "slo_tps" "tps" Higher;
    m ~modelled:true "goodput_tps" "tps" Higher;
    m ~modelled:true "abort_ratio" "ratio" Lower;
    m "wall_s" "s" Lower;
    m "setup_s" "s" Lower;
    m "peak_rss_mb" "MB" Lower;
  ]

(* Printed by a traced run, on every workload; 0 where the workload does
   not exercise the layer (README.md, "Per-layer metrics"). *)
let per_layer =
  [
    m "sim.events_per_commit" "events/commit" Lower;
    m "sim.events_per_wall_s" "events/s" Higher;
    m "sim.minor_words_per_event" "words/event" Lower;
    m "sim.ns_per_event" "ns" Lower;
    m "net.msgs_per_commit" "msgs/commit" Lower;
    m "net.ns_per_msg" "ns" Lower;
    m "gcs.instances_per_commit" "instances/commit" Lower;
    m "gcs.batch_size_mean" "values" Higher;
    m "gcs.broadcast_p50_us" "us" Lower;
    m "gcs.retransmits_per_kill" "retransmits/kill" Lower;
    m "gcs.takeover_ms" "ms" Lower;
    m "gcs.ns_per_round" "ns" Lower;
    m "store.wal_p50_us" "us" Lower;
    m "store.wal_writes_per_commit" "writes/commit" Lower;
    m "store.disk_util" "ratio" Lower;
    m "store.disk_queue_mean" "requests" Lower;
    m "db.read_p50_us" "us" Lower;
    m "db.certify_p50_us" "us" Lower;
    m "db.ns_per_certify" "ns" Lower;
    m "db.ns_per_lock" "ns" Lower;
    m "db.ns_per_wal_frame" "ns" Lower;
    m "core.ack_before_disk_ratio" "ratio" Higher;
    m "core.cpu_util" "ratio" Lower;
    m "core.cpu_queue_mean" "requests" Lower;
    m "core.unanswered" "count" Lower;
    m "core.ns_per_txn" "ns" Lower;
    m "workload.offered_ratio" "ratio" Higher;
    m "shard.windows" "count" Lower;
    m "shard.window_wall_us_p50" "us" Lower;
    m "shard.window_wall_us_p99" "us" Lower;
    m "shard.cross_ratio" "ratio" Higher;
    m "shard.cross_abort_ratio" "ratio" Lower;
    m "shard.vote_timeouts" "count" Lower;
    m "shard.subtx_per_cross" "subtx/cross" Lower;
    m "parallel.speedup_2v1" "ratio" Higher;
    m "check.nemesis_ms_per_storm" "ms/storm" Lower;
    m "check.liveness_ms_per_storm" "ms/storm" Lower;
    m "check.storage_ms_per_storm" "ms/storm" Lower;
    m "check.shard_ms_per_storm" "ms/storm" Lower;
    m "check.events_per_storm" "events/storm" Lower;
    m "obs.trace_overhead_ratio" "ratio" Lower;
    m "obs.sampler_overhead_ratio" "ratio" Lower;
    m "obs.spans_per_commit" "spans/commit" Lower;
    m "obs.export_ms" "ms" Lower;
    (* Workload-specific end-to-end quantities: the JSON contract wants
       every end-to-end metric on every workload, so these three ride in
       the traced run instead. *)
    m ~modelled:true "cross_commit_p50_ms" "ms" Lower;
    m ~modelled:true "cross_commit_p99_ms" "ms" Lower;
    m ~modelled:true "failover_ms" "ms" Lower;
  ]

(* The measuring time of one run, in seconds: [run_seconds] in
   BENCHMARK.json and the default of --seconds. *)
let run_seconds = 20.

(* How much of a workload one run simulates. A run of [run_seconds] does
   [rounds] rounds, each seeded from --seed, and every metric pools them;
   --seconds scales the count. The count never depends on how fast the
   host is, so two commits always measure the same work. *)
type scale = {
  warmup_s : float;
  measure_s : float;
  drain_s : float;
  rounds : int;  (** sized to take about [run_seconds] on the development host. *)
  kills : int;  (** leader kills per fault cell. *)
  storm_budget : int;  (** schedules per storm family per round. *)
}

type shape =
  | Single of {
      params : Workload.Params.t;
      tuning : Gcs.Bcast_tuning.t;
      fd : Gcs.Failure_detector.config;
      faults : bool;  (** leader kills with probes, plus the storm families. *)
    }
  | Sharded of {
      shards : int;
      params : Workload.Params.t;  (** per-shard group size, global key space. *)
      cross_fraction : float;
      zipf_s : float;
    }

type workload = {
  name : string;
  shape : shape;
  rungs : float list;  (** offered rates, tps, ascending. *)
  ref_rung : int;  (** index into [rungs] of the reference rate. *)
  limit_ms : float;  (** the latency limit L of [slo_tps]. *)
  jobs : int;
  scale : scale;
}

let ms = Sim.Sim_time.span_ms

(* [run_load_point]'s detector: the default 10 ms heartbeat is needless load
   when nothing crashes. *)
let light_fd = { Gcs.Failure_detector.heartbeat_interval = ms 50.; timeout = ms 250. }

(* [broadcast_ceiling]'s storage, ten times faster than the 2004 disks. *)
let fast_storage =
  {
    Workload.Params.table4 with
    Workload.Params.io_time_min = ms 0.4;
    io_time_max = ms 1.2;
    cpu_per_io = ms 0.1;
    hot_fraction = 0.;
  }

let workloads =
  [
    {
      name = "table4-fig9";
      shape =
        Single
          {
            params = Workload.Params.table4;
            tuning = Gcs.Bcast_tuning.default;
            fd = light_fd;
            faults = false;
          };
      rungs = [ 20.; 26.; 32.; 38. ];
      ref_rung = 2;
      limit_ms = 500.;
      jobs = 1;
      scale =
        { warmup_s = 5.; measure_s = 75.; drain_s = 3.; rounds = 7; kills = 0; storm_budget = 0 };
    };
    {
      name = "fastdisk-batched";
      shape =
        Single
          {
            params = fast_storage;
            tuning = Gcs.Bcast_tuning.batched ();
            fd = light_fd;
            faults = false;
          };
      rungs = [ 150.; 300.; 450. ];
      ref_rung = 1;
      limit_ms = 100.;
      jobs = 1;
      scale =
        { warmup_s = 5.; measure_s = 20.; drain_s = 3.; rounds = 4; kills = 0; storm_budget = 0 };
    };
    {
      name = "shard-readmostly";
      shape =
        Sharded
          {
            shards = 8;
            params =
              { Workload.Params.table4 with Workload.Params.servers = 3; write_probability = 0.1 };
            cross_fraction = 0.1;
            zipf_s = 0.6;
          };
      rungs = [ 80.; 160.; 240. ];
      ref_rung = 1;
      limit_ms = 300.;
      (* One domain: at two, the windowed exchange's spin barrier waits on
         whichever core a co-tenant holds, and the round's wall time
         measures the host's scheduler. The modelled results are the same
         at any job count; the traced run times the ref cell at two
         ([parallel.speedup_2v1]). *)
      jobs = 1;
      scale =
        { warmup_s = 5.; measure_s = 60.; drain_s = 3.; rounds = 7; kills = 0; storm_budget = 0 };
    };
    {
      name = "faults";
      shape =
        Single
          {
            params = Workload.Params.table4;
            tuning = Gcs.Bcast_tuning.default;
            fd = Gcs.Failure_detector.default_config;
            faults = true;
          };
      rungs = [ 30.; 38. ];
      ref_rung = 0;
      limit_ms = 500.;
      jobs = 1;
      scale =
        { warmup_s = 5.; measure_s = 50.; drain_s = 3.; rounds = 4; kills = 20; storm_budget = 50 };
    };
  ]

(* The --smoke scale: every code path, a few virtual seconds each. *)
let smoke =
  { warmup_s = 1.; measure_s = 2.; drain_s = 2.; rounds = 1; kills = 1; storm_budget = 4 }

let find name = List.find_opt (fun w -> String.equal w.name name) workloads
