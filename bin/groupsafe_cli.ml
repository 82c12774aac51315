(* Command-line driver: regenerate any table or figure of the paper, or run
   the whole evaluation. *)

open Cmdliner

let seed =
  let doc = "Random seed (runs are deterministic per seed)." in
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc)

let measure =
  let doc = "Measured simulated seconds per load point." in
  Arg.(value & opt float 60. & info [ "measure" ] ~docv:"SECONDS" ~doc)

let loads =
  let doc = "Offered loads (tps) for the Figure 9 sweep." in
  Arg.(value & opt (list float) Harness.Experiment.default_loads & info [ "loads" ] ~docv:"TPS,..." ~doc)

let csv =
  let doc = "Where to write the Figure 9 CSV." in
  Arg.(value & opt string "fig9.csv" & info [ "csv" ] ~docv:"PATH" ~doc)

let replications =
  let doc = "Independent runs per Figure 9 point (reports 95% confidence)." in
  Arg.(value & opt int 1 & info [ "replications" ] ~docv:"N" ~doc)

let trace_out =
  let doc =
    "Also write a Chrome trace-event JSON (open in chrome://tracing or Perfetto) of each \
     technique's first-load cell."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"PATH" ~doc)

let metrics_out =
  let doc =
    "Also write the merged per-technique metrics dump (counters, gauges, latency histograms); \
     JSON, or CSV when PATH ends in .csv."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"PATH" ~doc)

let fast =
  let doc = "Shrink the sweeps for a quick smoke run." in
  Arg.(value & flag & info [ "fast" ] ~doc)

(* Broadcast-engine tuning knobs (PR 8): batching, pipelining window and
   dissemination backend for the Dsm techniques' ordering layer. *)
let batch_arg =
  let doc = "Batch size: submissions packed per consensus instance (1 = seed engine)." in
  Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc)

let window_arg =
  let doc =
    "Pipelining window: maximum in-flight consensus instances (default: unbounded, the seed \
     engine)."
  in
  Arg.(value & opt (some int) None & info [ "window" ] ~docv:"W" ~doc)

let backend_arg =
  let doc =
    "Dissemination backend for Accept rounds: $(b,broadcast) (leader fan-out, the seed engine) \
     or $(b,ring) (Ring-Paxos-style circulation along the failure-detector ring)."
  in
  Arg.(
    value
    & opt (enum [ ("broadcast", Gcs.Bcast_tuning.Broadcast); ("ring", Gcs.Bcast_tuning.Ring) ])
        Gcs.Bcast_tuning.Broadcast
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let tuning_of batch window backend =
  {
    Gcs.Bcast_tuning.batch;
    window = (match window with Some w -> w | None -> max_int);
    dissemination = backend;
  }

let budget =
  let doc = "Schedules to explore per configuration." in
  Arg.(value & opt int 500 & info [ "budget" ] ~docv:"N" ~doc)

let nemesis =
  let doc =
    "Explore network-fault (nemesis) schedules instead: seeded storms of crashes, minority \
     partitions, loss windows and duplicated deliveries, each certified loss-free and convergent \
     after healing."
  in
  Arg.(value & flag & info [ "nemesis" ] ~doc)

let liveness_flag =
  let doc =
    "Explore fairness-constrained liveness schedules instead: every storm is a fair schedule \
     (crashes recovered, partitions healed, loss windows closed), every run must decide all owed \
     submissions and re-elect a working leader, and the oracle-mutation hooks prove the checker \
     rediscovers the known wedging bugs."
  in
  Arg.(value & flag & info [ "liveness" ] ~doc)

let storage_flag =
  let doc =
    "Explore storage-fault schedules instead: seeded storms of crashes plus disk faults (torn \
     tail writes, lying fsyncs — sometimes on every replica at once — record corruption, \
     slow-disk and disk-full windows), each certified by the durability oracle: losses only \
     where the advertised level or total storage betrayal permits them, every torn tail \
     repaired and every corruption detected on recovery."
  in
  Arg.(value & flag & info [ "storage" ] ~doc)

let max_decision_us =
  let doc =
    "With --liveness: bound every decided transaction's submission-to-decision latency \
     (microseconds); decisions beyond the bound fail the verdict as decided-but-late, reported \
     distinctly from wedged ones."
  in
  Arg.(value & opt (some int) None & info [ "max-decision-us" ] ~docv:"US" ~doc)

let counterexample_path =
  let doc =
    "Where --nemesis / --liveness / --storage write the shrunk counterexample trace on failure \
     (default nemesis-counterexample.txt, liveness-counterexample.txt or \
     storage-counterexample.txt respectively)."
  in
  Arg.(value & opt (some string) None & info [ "counterexample" ] ~docv:"PATH" ~doc)

let jobs =
  let doc =
    "Worker domains for the parallel experiment sweeps and explorer storms (default: \
     \\$(b,GROUPSAFE_JOBS) or the recommended domain count). Reports are byte-identical at any \
     worker count."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Applied once at the start of every command, so the resolved worker count
   is printed exactly once per run. *)
let apply_jobs jobs =
  (match jobs with Some n -> Parallel.Domain_pool.set_default_jobs n | None -> ());
  Printf.printf "parallel sweeps: %d worker domain(s)\n%!" (Parallel.Domain_pool.default_jobs ())

let simple name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun seed jobs ->
          apply_jobs jobs;
          f seed)
      $ seed $ jobs)

let cmds =
  [
    Cmd.v (Cmd.info "table1" ~doc:"Safety lattice (Table 1).")
      Term.(const (fun _ -> Harness.Experiment.table1 ()) $ seed);
    (* table1/table4 take no seed and spawn no sweeps; they keep the plain
       term so --jobs is only offered where it means something. *)
    simple "table2" "Tolerated crashes per level, empirically (Table 2)."
      (fun seed -> Harness.Experiment.table2 ~seed ());
    simple "table3" "Group-safe vs group-1-safe loss conditions (Table 3)."
      (fun seed -> Harness.Experiment.table3 ~seed ());
    Cmd.v (Cmd.info "table4" ~doc:"Simulator parameters (Table 4).")
      Term.(const (fun _ -> Harness.Experiment.table4 ()) $ seed);
    simple "fig5" "Classical atomic broadcast loses an acknowledged transaction (Fig. 5)."
      (fun seed -> Harness.Experiment.fig5 ~seed ());
    simple "fig7" "End-to-end atomic broadcast replays it (Fig. 7)."
      (fun seed -> Harness.Experiment.fig7 ~seed ());
    Cmd.v
      (Cmd.info "fig9"
         ~doc:
           "Response time vs offered load (Figure 9). --batch/--window/--backend select the \
            broadcast-engine tuning for the Dsm techniques; --shards runs every cell on that \
            many Table 4 replica groups (key-range sharded, --cross of submissions \
            2PC-certified across shards).")
      Term.(
        const (fun seed loads measure_s batch window backend replications csv_path trace_out
                   metrics_out shards cross_fraction jobs ->
            apply_jobs jobs;
            Harness.Experiment.fig9 ~seed ~loads ~measure_s
              ~tuning:(tuning_of batch window backend)
              ~replications ~csv_path ?trace_out ?metrics_out ~shards ~cross_fraction ())
        $ seed $ loads $ measure $ batch_arg $ window_arg $ backend_arg $ replications $ csv
        $ trace_out $ metrics_out
        $ Arg.(
            value & opt int 1
            & info [ "shards" ] ~docv:"N"
                ~doc:"Key-range shards; each is a full Table 4 replica group.")
        $ Arg.(
            value & opt float 0.
            & info [ "cross" ] ~docv:"FRACTION"
                ~doc:
                  "With --shards > 1: fraction of submissions extended with a write on the \
                   next shard (cross-shard 2PC).")
        $ jobs);
    Cmd.v
      (Cmd.info "shardout"
         ~doc:
           "Shard-out study: aggregate committed throughput vs shard count (1..32 key-range \
            shards, 3 servers each) at a fixed offered load far past one group's ceiling, over \
            Zipf-skewed keys; shard-local and cross-shard (2PC) sweeps.")
      Term.(
        const (fun seed counts load_tps measure_s cross zipf jobs ->
            apply_jobs jobs;
            Harness.Experiment.shardout ~seed ~counts ~load_tps ~measure_s ~cross_fraction:cross
              ~zipf_s:zipf ())
        $ seed
        $ Arg.(
            value
            & opt (list int) Harness.Experiment.default_shard_counts
            & info [ "counts" ] ~docv:"N,..." ~doc:"Shard counts to sweep.")
        $ Arg.(
            value & opt float 320.
            & info [ "load" ] ~docv:"TPS" ~doc:"Total offered load, split over the shards.")
        $ Arg.(
            value & opt float 10.
            & info [ "measure" ] ~docv:"SECONDS" ~doc:"Measured simulated seconds per cell.")
        $ Arg.(
            value & opt float 0.1
            & info [ "cross" ] ~docv:"FRACTION"
                ~doc:"Fraction of submissions crossing shards in the cross sweep.")
        $ Arg.(
            value & opt float 1.1
            & info [ "zipf" ] ~docv:"S" ~doc:"Zipf skew exponent for each shard's key choice.")
        $ jobs);
    Cmd.v
      (Cmd.info "shardstorm"
         ~doc:
           "Sharded storm certification: seeded storms of crashes, whole-shard isolations, \
            cross-group cuts and loss windows on a sharded deployment with cross-shard 2PC \
            traffic; every run certified per shard (safety, durability, convergence) plus the \
            global cross-shard loss and atomicity audit. Exits non-zero on a counterexample.")
      Term.(
        const (fun seed budget shards jobs ->
            apply_jobs jobs;
            if not (Harness.Experiment.shard_storms ~seed ~budget ~shards ()) then
              Stdlib.exit 1)
        $ Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Storm seed.")
        $ Arg.(
            value & opt int 500 & info [ "budget" ] ~docv:"N" ~doc:"Storms per configuration.")
        $ Arg.(
            value & opt int 2
            & info [ "shards" ] ~docv:"N" ~doc:"Shards (3 servers each) per deployment.")
        $ jobs);
    Cmd.v
      (Cmd.info "ceiling"
         ~doc:
           "Broadcast-engine ceiling study: the bare ordering layer's throughput per engine \
            (seed, batched, ring, ring+batched), then the extended Figure 9 load axis far past \
            the crossover with each backend's saturation point.")
      Term.(
        const (fun seed loads measure_s jobs ->
            apply_jobs jobs;
            Harness.Experiment.broadcast_ceiling ~seed ~loads ~measure_s ())
        $ seed
        $ Arg.(
            value
            & opt (list float) Harness.Experiment.default_ceiling_loads
            & info [ "loads" ] ~docv:"TPS,..." ~doc:"Offered loads (tps) for the extended sweep.")
        $ Arg.(
            value & opt float 30.
            & info [ "measure" ] ~docv:"SECONDS" ~doc:"Measured simulated seconds per point.")
        $ jobs);
    simple "closedloop" "Figure 9 under the closed-loop Table 4 client model."
      (fun seed -> Harness.Experiment.closed_loop ~seed ());
    simple "latency" "Disk-write vs atomic-broadcast latency (Section 6)."
      (fun seed -> Harness.Experiment.latency ~seed ());
    simple "observability" "Per-phase latency percentiles and ack-path counters per technique."
      (fun seed -> Harness.Experiment.observability ~seed ());
    Cmd.v
      (Cmd.info "obs"
         ~doc:
           "Write the fixed observability demo artifacts: a Chrome trace-event JSON and a \
            metrics dump from a deterministic 3-server group-safe scenario (byte-stable per \
            seed; used as the CI sample artifact).")
      Term.(
        const (fun seed trace_path metrics_path ->
            let trace, metrics = Harness.Experiment.obs_demo ~seed () in
            let write path s =
              let oc = open_out path in
              output_string oc s;
              close_out oc;
              Printf.printf "wrote %s (%d bytes)\n" path (String.length s)
            in
            write trace_path trace;
            write metrics_path metrics)
        $ Arg.(value & opt int64 7L & info [ "seed" ] ~docv:"SEED" ~doc:"Scenario seed.")
        $ Arg.(
            value
            & opt string "obs-trace.json"
            & info [ "trace-out" ] ~docv:"PATH" ~doc:"Where to write the Chrome trace.")
        $ Arg.(
            value
            & opt string "obs-metrics.json"
            & info [ "metrics-out" ] ~docv:"PATH" ~doc:"Where to write the metrics JSON."));
    Cmd.v (Cmd.info "section7" ~doc:"Scaling analysis: lazy risk vs group risk (Section 7).")
      Term.(
        const (fun _ jobs ->
            apply_jobs jobs;
            Harness.Experiment.section7 ())
        $ seed $ jobs);
    simple "scaleout" "Response time vs number of servers."
      (fun seed -> Harness.Experiment.scaleout ~seed ());
    simple "recovery" "Catch-up time after an outage: state transfer vs log replay."
      (fun seed -> Harness.Experiment.recovery ~seed ());
    simple "eager" "Eager 2PC baseline vs group communication (introduction)."
      (fun seed -> Harness.Experiment.eager_comparison ~seed ());
    simple "ablations" "Design ablations (group commit, apply coalescing, uniformity)."
      (fun seed ->
        Harness.Experiment.ablation_group_commit ~seed ();
        Harness.Experiment.ablation_apply_factor ~seed ();
        Harness.Experiment.ablation_buffer ~seed ();
        Harness.Experiment.ablation_loss ~seed ();
        Harness.Experiment.ablation_uniformity ~seed ());
    Cmd.v
      (Cmd.info "explore"
         ~doc:
           "Explore crash/recover/delay schedules: rediscover the Fig. 5 loss, certify the safe \
            configurations loss-free, and sweep every level for forbidden losses. With --nemesis, \
            explore network-fault storms (partitions, loss windows, duplications) and certify \
            healing convergence instead. With --liveness, explore fair storms and certify every \
            owed submission decided and leadership re-established. With --storage, explore \
            disk-fault storms (torn writes, lying fsyncs, corruption, slow/full disks) and \
            certify the durability oracle's verdict clean. Exits non-zero if any check fails.")
      Term.(
        const (fun seed budget nemesis liveness storage max_decision_us counterexample_path jobs ->
            apply_jobs jobs;
            let path default = Option.value counterexample_path ~default in
            let ok =
              if storage then
                Harness.Experiment.storage ~seed ~budget
                  ~counterexample_path:(path "storage-counterexample.txt")
                  ()
              else if liveness then
                Harness.Experiment.liveness ~seed ~budget ?max_decision_us
                  ~counterexample_path:(path "liveness-counterexample.txt")
                  ()
              else if nemesis then
                Harness.Experiment.nemesis ~seed ~budget
                  ~counterexample_path:(path "nemesis-counterexample.txt")
                  ()
              else Harness.Experiment.explore ~seed ~budget ()
            in
            if not ok then Stdlib.exit 1)
        $ seed $ budget $ nemesis $ liveness_flag $ storage_flag $ max_decision_us
        $ counterexample_path $ jobs);
    Cmd.v (Cmd.info "all" ~doc:"Everything, in paper order.")
      Term.(
        const (fun seed fast jobs ->
            apply_jobs jobs;
            Harness.Experiment.all ~seed ~fast ())
        $ seed $ fast $ jobs);
  ]

let () =
  let info =
    Cmd.info "groupsafe-cli" ~version:"1.0.0"
      ~doc:"Reproduction of Wiesmann & Schiper, Group-Safety (EDBT 2004)"
  in
  exit (Cmd.eval (Cmd.group info cmds))
