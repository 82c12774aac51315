(* The repository benchmark: one workload per process.

     workloads.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     workloads.exe --smoke BENCHMARK.json

   An untraced run warms up (one short, untimed cell), then simulates
   rounds — one cell per rung of the workload's ladder, plus the storm
   families on the faults workload — and prints every end-to-end metric.
   The number of rounds is fixed by the workload and [--seconds], and each
   round's seed by [--seed], so the modelled (virtual-clock) metrics are
   identical on every run of the same code, seed and length, and the
   wall-clock medians of two commits cover the same work. A traced run does
   the same rounds with wall-clock spans around every call into a layer,
   adds the A/B cells and the layer probes, prints every per-layer metric
   and writes
   bench-trace-<workload>.json and bench-metrics-<workload>.json. The last
   stdout line is the result object: correct, attempted, failed and
   metrics. Any oracle failure makes it exit 1. README.md explains every
   metric. *)

[@@@lint.allow "D-wallclock" "the benchmark measures real elapsed time by design"]

type metric_value = { spec : Spec.metric; value : float }

(* ---- statistics ---- *)

let percentile xs p =
  if Array.length xs = 0 then 0.
  else begin
    let s = Sim.Stats.series "bench" in
    Array.iter (Sim.Stats.add s) xs;
    Sim.Stats.percentile s p
  end

let median xs = percentile (Array.of_list xs) 50.
let ratio a b = if Float.equal b 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)
let sum_i f l = List.fold_left (fun n x -> n + f x) 0 l
let sum_f f l = List.fold_left (fun n x -> n +. f x) 0. l

let hist reg name =
  match Obs.Registry.find_histogram reg name with
  | Some h when Obs.Histogram.count h > 0 -> Some h
  | Some _ | None -> None

(* Midpoint of the histogram's quantile bracket (exact below 16). *)
let hist_q reg name q =
  match hist reg name with
  | Some h ->
    let lo, hi = Obs.Histogram.quantile_bounds h q in
    float_of_int (lo + hi) /. 2.
  | None -> 0.

let hist_mean reg name = match hist reg name with Some h -> Obs.Histogram.mean h | None -> 0.

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | Some l when String.starts_with ~prefix:"VmHWM:" l -> l
          | Some _ -> find ()
          | None -> failwith "VmHWM missing from /proc/self/status"
        in
        find ())
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* ---- rounds ---- *)

let cell_seed ~seed ~round = Int64.(add (mul (of_int seed) 1_000_003L) (of_int (1 + (round * 7919))))
let storm_seed ~seed ~round = Int64.(add 42L (add (mul (of_int seed) 1009L) (of_int round)))

type round = {
  cells : Cells.result list;
  storms : Storms.run list;
  setup_s : float list;  (** builds of the reference cell's deployment. *)
  wall_s : float;  (** simulation, storms and oracles, set-up excluded. *)
  speed : float;  (** development-host seconds per measured second over the round. *)
}

let faults (w : Spec.workload) =
  match w.Spec.shape with Spec.Single { faults; _ } -> faults | Spec.Sharded _ -> false

let cell_config ?(samplers = true) ?(obs_trace = false) ?jobs ~barriers (w : Spec.workload) scale ~rung
    ~seed : Cells.config =
  {
    Cells.workload = w;
    scale;
    rung;
    seed;
    samplers;
    obs_trace;
    jobs = Option.value jobs ~default:w.Spec.jobs;
    barriers;
  }

(* Set-up is sub-millisecond: each round times this many builds, so that
   [setup_s] is a median of many. *)
let setup_reps = 5

let run_round (w : Spec.workload) (scale : Spec.scale) ~seed ~round ~barriers =
  Spans.span ~layer:"bench" (Printf.sprintf "round %d" round) (fun () ->
      let mark = Reference.mark () in
      let setup_s =
        let c = cell_config ~barriers w scale ~rung:w.Spec.ref_rung ~seed:(cell_seed ~seed ~round) in
        List.init setup_reps (fun _ -> Cells.setup_time c)
      in
      let cells =
        List.mapi
          (fun rung _ ->
            Cells.run (cell_config ~barriers w scale ~rung ~seed:(cell_seed ~seed ~round)))
          w.Spec.rungs
      in
      let storms =
        if faults w then Storms.run_all ~seed:(storm_seed ~seed ~round) ~budget:scale.Spec.storm_budget
        else []
      in
      {
        cells;
        storms;
        setup_s;
        wall_s = sum_f (fun c -> c.Cells.run_s) cells +. sum_f (fun s -> s.Storms.wall_s) storms;
        speed = Reference.speed_since mark;
      })

let attempted rounds =
  sum_i (fun r -> sum_i (fun c -> c.Cells.submitted) r.cells + sum_i (fun s -> s.Storms.runs) r.storms) rounds

let failed rounds =
  sum_i
    (fun r ->
      sum_i (fun c -> c.Cells.failed) r.cells
      + List.length (List.filter (fun s -> not s.Storms.clean) r.storms))
    rounds

(* ---- end-to-end metrics ---- *)

(* The highest offered rate at which at least 90% of offered transactions
   commit within the limit, interpolated linearly between the last rung
   that meets it and the first that does not (from (0 tps, 100%) when the
   lowest rung already misses). Aborted and unanswered transactions miss. *)
let slo_tps (w : Spec.workload) cells =
  let frac rung =
    let at = List.filter (fun c -> c.Cells.rung = rung) cells in
    ratio_i (sum_i (fun c -> c.Cells.within_limit) at) (sum_i (fun c -> c.Cells.offered) at)
  in
  let points = List.mapi (fun i rate -> (rate, frac i)) w.Spec.rungs in
  let rec go (r0, f0) = function
    | [] -> r0
    | (r1, f1) :: rest ->
      if f1 >= 0.9 then go (r1, f1) rest else r0 +. ((f0 -. 0.9) /. (f0 -. f1) *. (r1 -. r0))
  in
  go (0., 1.) points

let value spec v = { spec; value = v }
let find_spec name l = List.find (fun (m : Spec.metric) -> String.equal m.name name) l

let end_to_end (w : Spec.workload) (scale : Spec.scale) ~rounds ~peak_rss_mb =
  let cells = List.concat_map (fun r -> r.cells) rounds in
  let at rung = List.filter (fun c -> c.Cells.rung = rung) cells in
  let ref_cells = at w.Spec.ref_rung in
  let top = at (List.length w.Spec.rungs - 1) in
  let lat = Array.concat (List.map (fun c -> c.Cells.latencies) ref_cells) in
  let v name x = value (find_spec name Spec.end_to_end) x in
  [
    v "commit_p50_ms" (percentile lat 50.);
    v "commit_p99_ms" (percentile lat 99.);
    v "slo_tps" (slo_tps w cells);
    v "goodput_tps"
      (float_of_int (sum_i (fun c -> c.Cells.commits) top)
      /. (scale.Spec.measure_s *. float_of_int (List.length top)));
    v "abort_ratio"
      (ratio_i (sum_i (fun c -> c.Cells.aborts) cells)
         (sum_i (fun c -> c.Cells.aborts + c.Cells.commits) cells));
    v "wall_s" (median (List.map (fun r -> r.wall_s *. r.speed) rounds));
    v "setup_s" (median (List.concat_map (fun r -> List.map (fun x -> x *. r.speed) r.setup_s) rounds));
    v "peak_rss_mb" peak_rss_mb;
  ]

(* ---- traced run: A/B cells and per-layer metrics ---- *)

type extras = {
  trace_overhead : float;
  sampler_overhead : float;
  speedup_2v1 : float;
  spans_per_commit : float;
  export_ms : float;
  identical : bool;  (** the toggles left every modelled number unchanged. *)
  variants : Cells.result list;
}

let modelled_equal (a : Cells.result) (b : Cells.result) =
  a.Cells.offered = b.Cells.offered
  && a.Cells.commits = b.Cells.commits
  && a.Cells.aborts = b.Cells.aborts
  && a.Cells.within_limit = b.Cells.within_limit
  && Array.length a.Cells.latencies = Array.length b.Cells.latencies
  && Array.for_all2 (fun x y -> Float.equal x y) a.Cells.latencies b.Cells.latencies
  && Array.length a.Cells.cross_latencies = Array.length b.Cells.cross_latencies
  && Array.for_all2 (fun x y -> Float.equal x y) a.Cells.cross_latencies b.Cells.cross_latencies

(* The reference cell of round 0 ([reference], as the traced rounds ran
   it) again: plain (no spans, no barrier timing, no tracer), plain
   without samplers, with the tracer armed, and — sharded only — plain at
   two domains. Every variant must reproduce [reference]'s modelled results. *)
let run_extras (w : Spec.workload) scale ~seed ~reference ~write_trace =
  let seed = cell_seed ~seed ~round:0 and rung = w.Spec.ref_rung in
  (* Each variant's wall time in development-host seconds, like [wall_s]. *)
  let run cfg =
    let mark = Reference.mark () in
    let r = Cells.run cfg in
    (r, r.Cells.run_s *. Reference.speed_since mark)
  in
  let plain ?samplers ?jobs () =
    Spans.without (fun () -> run (cell_config ?samplers ?jobs ~barriers:false w scale ~rung ~seed))
  in
  let with_samplers, with_samplers_s = plain () in
  let without_samplers, without_samplers_s = plain ~samplers:false () in
  let traced, traced_s =
    Spans.span ~layer:"bench" "traced reference cell" (fun () ->
        run (cell_config ~obs_trace:true ~barriers:true w scale ~rung ~seed))
  in
  let two_domains =
    match w.Spec.shape with Spec.Sharded _ -> Some (plain ~jobs:2 ()) | Spec.Single _ -> None
  in
  let variants = with_samplers :: without_samplers :: traced :: Option.to_list (Option.map fst two_domains) in
  let t0 = Unix.gettimeofday () in
  let metrics_json, trace_json =
    Spans.span ~layer:"obs" "Export" (fun () ->
        ( Obs.Export.to_json [ { Obs.Export.name = w.Spec.name; registry = traced.Cells.registry } ],
          Obs.Chrome_trace.to_string
            [
              { Obs.Chrome_trace.pid = 1; name = "bench (wall clock)"; events = Spans.to_trace_events () };
              {
                Obs.Chrome_trace.pid = 2;
                name = "traced reference cell (virtual time)";
                events = traced.Cells.trace_events;
              };
            ] ))
  in
  let export_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  if write_trace then
    List.iter
      (fun (kind, contents) ->
        Out_channel.with_open_bin (Printf.sprintf "bench-%s-%s.json" kind w.Spec.name) (fun oc ->
            Out_channel.output_string oc contents))
      [ ("trace", trace_json); ("metrics", metrics_json) ];
  {
    trace_overhead = ratio traced_s with_samplers_s;
    sampler_overhead = ratio with_samplers_s without_samplers_s;
    speedup_2v1 = (match two_domains with Some (_, s) -> ratio with_samplers_s s | None -> 0.);
    spans_per_commit = ratio_i (List.length traced.Cells.trace_events) traced.Cells.all_commits;
    export_ms;
    identical = List.for_all (modelled_equal reference) variants;
    variants;
  }

let per_layer (w : Spec.workload) ~rounds ~extras ~probes =
  let cells = List.concat_map (fun r -> r.cells) rounds in
  let storms = List.concat_map (fun r -> r.storms) rounds in
  let reg = Obs.Registry.create () in
  List.iter (fun c -> Obs.Registry.merge_into ~into:reg c.Cells.registry) cells;
  let counter = Obs.Registry.counter_value reg in
  let events = sum_i (fun c -> c.Cells.events) cells in
  let commits = sum_i (fun c -> c.Cells.all_commits) cells in
  let kills = sum_i (fun c -> c.Cells.kills) cells in
  let ref_cells = List.filter (fun c -> c.Cells.rung = w.Spec.ref_rung) cells in
  let windows = Obs.Histogram.create () in
  List.iter (fun c -> Obs.Histogram.merge_into ~into:windows c.Cells.window_wall_us) cells;
  let window_q q =
    if Obs.Histogram.count windows = 0 then 0.
    else
      let lo, hi = Obs.Histogram.quantile_bounds windows q in
      float_of_int (lo + hi) /. 2.
  in
  let storm_ms family =
    let s = List.filter (fun s -> s.Storms.family = family) storms in
    ratio (1000. *. sum_f (fun s -> s.Storms.wall_s) s) (float_of_int (sum_i (fun s -> s.Storms.runs) s))
  in
  let probe name = Option.value (List.assoc_opt name probes) ~default:0. in
  let cross = counter "xshard.cross_submitted" in
  let ack_before = counter "txn.ack_before_disk" and ack_after = counter "txn.ack_after_disk" in
  let cross_lat = Array.concat (List.map (fun c -> c.Cells.cross_latencies) ref_cells) in
  let values =
    [
      ("sim.events_per_commit", ratio_i events commits);
      ("sim.events_per_wall_s", ratio (float_of_int events) (sum_f (fun c -> c.Cells.run_s) cells));
      ("sim.minor_words_per_event", ratio (sum_f (fun c -> c.Cells.minor_words) cells) (float_of_int events));
      ("sim.ns_per_event", probe "sim.ns_per_event");
      ("net.msgs_per_commit", ratio_i (sum_i (fun c -> c.Cells.messages) cells) commits);
      ("net.ns_per_msg", probe "net.ns_per_msg");
      ("gcs.instances_per_commit", ratio_i (counter "log.accepts_sent") commits);
      ("gcs.batch_size_mean", hist_mean reg "abcast.batch_size");
      ("gcs.broadcast_p50_us", hist_q reg "phase.broadcast_us" 0.5);
      ( "gcs.retransmits_per_kill",
        ratio_i (counter "abcast.retransmit_ticks" + counter "log.accept_resends") kills );
      ("gcs.takeover_ms", median (List.concat_map (fun c -> c.Cells.takeovers_ms) cells));
      ("gcs.ns_per_round", probe "gcs.ns_per_round");
      ("store.wal_p50_us", hist_q reg "phase.wal_us" 0.5);
      ( "store.wal_writes_per_commit",
        ratio_i (match hist reg "phase.wal_us" with Some h -> Obs.Histogram.count h | None -> 0) commits );
      ("store.disk_util", hist_mean reg "res.disk.util_permille" /. 1000.);
      ("store.disk_queue_mean", hist_mean reg "res.disk.queue");
      ("db.read_p50_us", hist_q reg "phase.read_us" 0.5);
      ("db.certify_p50_us", hist_q reg "phase.certify_us" 0.5);
      ("db.ns_per_certify", probe "db.ns_per_certify");
      ("db.ns_per_lock", probe "db.ns_per_lock");
      ("db.ns_per_wal_frame", probe "db.ns_per_wal_frame");
      ("core.ack_before_disk_ratio", ratio_i ack_before (ack_before + ack_after));
      ("core.cpu_util", hist_mean reg "res.cpu.util_permille" /. 1000.);
      ("core.cpu_queue_mean", hist_mean reg "res.cpu.queue");
      ("core.unanswered", float_of_int (sum_i (fun c -> c.Cells.unanswered) cells));
      ("core.ns_per_txn", probe "core.ns_per_txn");
      ( "workload.offered_ratio",
        ratio (float_of_int (sum_i (fun c -> c.Cells.arrivals) cells))
          (sum_f (fun c -> c.Cells.expected_arrivals) cells) );
      ("shard.windows", float_of_int (sum_i (fun c -> c.Cells.windows) cells));
      ("shard.window_wall_us_p50", window_q 0.5);
      ("shard.window_wall_us_p99", window_q 0.99);
      ("shard.cross_ratio", ratio_i cross (cross + counter "xshard.fast_path"));
      ( "shard.cross_abort_ratio",
        ratio_i (counter "xshard.cross_aborted")
          (counter "xshard.cross_aborted" + counter "xshard.cross_committed") );
      ("shard.vote_timeouts", float_of_int (counter "xshard.vote_timeout"));
      ("shard.subtx_per_cross", ratio_i (counter "xshard.probe_subs" + counter "xshard.write_subs") cross);
      ("parallel.speedup_2v1", extras.speedup_2v1);
      ("check.nemesis_ms_per_storm", storm_ms Storms.Nemesis);
      ("check.liveness_ms_per_storm", storm_ms Storms.Liveness);
      ("check.storage_ms_per_storm", storm_ms Storms.Storage);
      ("check.shard_ms_per_storm", storm_ms Storms.Shard);
      ( "check.events_per_storm",
        ratio_i (sum_i (fun s -> s.Storms.events) storms) (sum_i (fun s -> s.Storms.runs) storms) );
      ("obs.trace_overhead_ratio", extras.trace_overhead);
      ("obs.sampler_overhead_ratio", extras.sampler_overhead);
      ("obs.spans_per_commit", extras.spans_per_commit);
      ("obs.export_ms", extras.export_ms);
      ("cross_commit_p50_ms", percentile cross_lat 50.);
      ("cross_commit_p99_ms", percentile cross_lat 99.);
      ("failover_ms", median (List.concat_map (fun c -> c.Cells.probes_ms) ref_cells));
    ]
  in
  List.map (fun (name, x) -> value (find_spec name Spec.per_layer) x) values

(* ---- one workload, one process ---- *)

type outcome = {
  metrics : metric_value list;
  attempted : int;
  failed : int;
  rounds : round list;
}

let warm_up (w : Spec.workload) ~seed =
  ignore
    (Cells.run
       (cell_config ~barriers:false w Spec.smoke ~rung:w.Spec.ref_rung ~seed:(cell_seed ~seed ~round:(-1))))

(* [scale.rounds] per [Spec.run_seconds] of --seconds, at least one. *)
let round_count (scale : Spec.scale) ~seconds =
  max 1 (Float.to_int (Float.round (float_of_int scale.Spec.rounds *. seconds /. Spec.run_seconds)))

let run_workload (w : Spec.workload) ~scale ~seed ~seconds ~trace ~probe_quota_s ~write_trace =
  Parallel.Domain_pool.set_default_jobs w.Spec.jobs;
  Spans.start ~enabled:trace;
  Spans.span ~layer:"bench" ("workload " ^ w.Spec.name) (fun () ->
      let rounds =
        List.init (round_count scale ~seconds) (fun round -> run_round w scale ~seed ~round ~barriers:trace)
      in
      if trace then begin
        let reference =
          List.find (fun c -> c.Cells.rung = w.Spec.ref_rung) (List.hd rounds).cells
        in
        let extras = run_extras w scale ~seed ~reference ~write_trace in
        let probes = Spans.span ~layer:"probes" "layer probes" (fun () -> Probes.run ~quota_s:probe_quota_s) in
        let broken = if extras.identical then 0 else 1 in
        {
          metrics = per_layer w ~rounds ~extras ~probes;
          attempted = attempted rounds + sum_i (fun c -> c.Cells.submitted) extras.variants;
          failed = failed rounds + sum_i (fun c -> c.Cells.failed) extras.variants + broken;
          rounds;
        }
      end
      else
        {
          metrics = end_to_end w scale ~rounds ~peak_rss_mb:(peak_rss_mb ());
          attempted = attempted rounds;
          failed = failed rounds;
          rounds;
        })

(* ---- output ---- *)

let print_summary (w : Spec.workload) ~seed ~trace o =
  Printf.printf "workload %s  seed %d  %s  rounds %d\n" w.Spec.name seed
    (if trace then "traced" else "untraced")
    (List.length o.rounds);
  let cells = List.concat_map (fun r -> r.cells) o.rounds in
  Printf.printf "  %8s %8s %12s %10s %10s %8s\n" "rate" "offered" "within L" "p50 ms" "p99 ms" "aborts";
  List.iteri
    (fun rung rate ->
      let at = List.filter (fun c -> c.Cells.rung = rung) cells in
      let lat = Array.concat (List.map (fun c -> c.Cells.latencies) at) in
      Printf.printf "  %8.0f %8d %11.1f%% %10.1f %10.1f %8d\n" rate
        (sum_i (fun c -> c.Cells.offered) at)
        (100. *. ratio_i (sum_i (fun c -> c.Cells.within_limit) at) (sum_i (fun c -> c.Cells.offered) at))
        (percentile lat 50.) (percentile lat 99.)
        (sum_i (fun c -> c.Cells.aborts) at))
    w.Spec.rungs;
  List.iter
    (fun m -> Printf.printf "  %-30s %18.6f %s\n" m.spec.Spec.name m.value m.spec.Spec.unit_)
    o.metrics;
  let each f = String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" (f r)) o.rounds) in
  Printf.printf "  round walls, measured (s): %s\n" (each (fun r -> r.wall_s));
  Printf.printf "  host speed vs the reference host: %s\n" (each (fun r -> r.speed));
  let slices, shared = Reference.slices () in
  Printf.printf "  reference slices: %d, %d of them shared a collection\n" slices shared;
  if trace then begin
    print_endline "  self time by layer (wall clock, bench spans):";
    List.iter (fun (layer, s) -> Printf.printf "    %-8s %10.3f s\n" layer s) (Spans.self_time_by_layer ())
  end

let result_line o =
  let metric m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote m.spec.Spec.name) (Json.number m.value)
      (Json.quote m.spec.Spec.unit_)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" (o.failed = 0)
    o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))

(* ---- smoke ---- *)

(* Every workload at a few virtual seconds per cell: each metric named in
   [spec_path] printed exactly once, with its unit, and the modelled
   metrics byte-identical across two runs. *)
let smoke spec_path =
  let spec = Json.read_file spec_path in
  let field key f = List.map (fun m -> Json.to_string (Json.member f m)) (Json.to_list (Json.member key spec)) in
  let names key = field key "name" in
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  check
    (names "workloads" = List.map (fun w -> w.Spec.name) Spec.workloads)
    "workload names differ from BENCHMARK.json";
  check
    (Float.equal (Json.to_float (Json.member "run_seconds" spec)) Spec.run_seconds)
    "run_seconds differs from BENCHMARK.json";
  let expect key printed =
    let got = List.map (fun m -> m.spec.Spec.name) printed in
    check (got = names key) (key ^ ": printed metric names differ from BENCHMARK.json");
    check (List.map (fun m -> m.spec.Spec.unit_) printed = field key "unit") (key ^ ": units differ");
    check
      (List.map (fun m -> match m.spec.Spec.better with Spec.Lower -> "lower" | Spec.Higher -> "higher") printed
      = field key "better")
      (key ^ ": directions differ")
  in
  let modelled o =
    String.concat "\n"
      (List.filter_map
         (fun m -> if m.spec.Spec.modelled then Some (m.spec.Spec.name ^ " " ^ Json.number m.value) else None)
         o.metrics)
  in
  List.iter
    (fun w ->
      let go trace =
        run_workload w ~scale:Spec.smoke ~seed:0 ~seconds:0. ~trace ~probe_quota_s:0.01 ~write_trace:false
      in
      let a = go false and b = go false and t = go true in
      expect "end_to_end" a.metrics;
      expect "per_layer" t.metrics;
      check (String.equal (modelled a) (modelled b)) (w.Spec.name ^ ": modelled metrics differ between runs");
      check (a.failed = 0 && t.failed = 0) (w.Spec.name ^ ": failed operations");
      Printf.printf "smoke %s: %d end-to-end, %d per-layer metrics\n%!" w.Spec.name (List.length a.metrics)
        (List.length t.metrics))
    Spec.workloads;
  match !problems with
  | [] -> print_endline "smoke ok"
  | ps ->
    List.iter prerr_endline (List.rev ps);
    exit 1

(* ---- entry point ---- *)

let usage () =
  prerr_endline
    "usage: workloads.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       workloads.exe --smoke BENCHMARK.json";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Spec.name) Spec.workloads));
  exit 2

let () =
  let workload = ref None and seed = ref 0 and seconds = ref Spec.run_seconds and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: path :: [] ->
      smoke path;
      exit 0
    | "--workload" :: name :: rest ->
      (match Spec.find name with Some w -> workload := Some w | None -> usage ());
      parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some s when s >= 0. -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some w ->
    Parallel.Domain_pool.set_default_jobs w.Spec.jobs;
    (* Untimed: the first cell of a process pays domain start-up and
       first-touch allocation. *)
    warm_up w ~seed:!seed;
    let o =
      run_workload w ~scale:w.Spec.scale ~seed:!seed ~seconds:!seconds ~trace:!trace ~probe_quota_s:0.5
        ~write_trace:true
    in
    print_summary w ~seed:!seed ~trace:!trace o;
    print_endline (result_line o);
    if o.failed > 0 then exit 1
