(* Benchmark harness.

   Three parts:
   1. Regeneration of every table and figure of the paper (the experiment
      index in DESIGN.md) through Harness.Experiment — this prints the same
      rows/series the paper reports and is the reproduction artefact. The
      sweeps fan out over Parallel.Domain_pool (BENCH_JOBS, default: the
      recommended domain count) and each section's wall clock and simulated
      events/sec are recorded.
   2. A multicore speedup probe: the same fixed Fig. 9 sweep at 1 worker
      and at 4 workers, wall clocks compared.
   3. Bechamel micro-benchmarks of the building blocks (ordering round,
      certification, locking, logging, simulation kernel), so performance
      regressions in the substrate are visible independently of the
      simulation results.

   `BENCH_FAST=1 dune exec bench/main.exe` shrinks the sweeps.
   `--json PATH` writes the whole trajectory (micro ns/run, per-section
   wall clock and events/sec, speedup probe) as BENCH_*.json;
   `--check-against BASELINE.json` compares the micro-benchmarks against a
   committed baseline and exits non-zero on a >30% regression.
   See docs/PERFORMANCE.md for the schema and how to read the numbers. *)

(* A benchmark's whole job is to measure real elapsed time; nothing here
   feeds back into simulation logic. *)
[@@@lint.allow "D-wallclock" "benchmarks measure real wall-clock time by design"]

open Bechamel
open Toolkit

(* ---- Micro-benchmark fixtures ---- *)

let bench_event_queue =
  let q = Sim.Event_queue.create () in
  let i = ref 0 in
  Test.make ~name:"sim/event_queue add+pop"
    (Staged.stage (fun () ->
         incr i;
         Sim.Event_queue.add q ~time:(Sim.Sim_time.of_us (!i land 0xffff)) !i;
         ignore (Sim.Event_queue.pop q)))

(* Delays in microseconds cycling through link, CPU, disk and timer
   scales, for the two steady-state micros below. *)
let steady_delays = [| 70; 70; 140; 1_000; 8_000; 100_000; 0 |]

(* The micro above never holds more than one entry, so it never sifts.
   This one keeps 128 events live and advances the clock like the engine
   (pop the earliest, schedule a successor after the next delay of
   [steady_delays]), so adds and pops sift through a seven-level heap. *)
let bench_event_queue_steady =
  let q = Sim.Event_queue.create () in
  let delays = steady_delays in
  let i = ref 0 in
  let schedule now =
    incr i;
    Sim.Event_queue.add q ~time:(Sim.Sim_time.of_us (now + delays.(!i mod Array.length delays))) !i
  in
  for _ = 1 to 128 do
    schedule 0
  done;
  Test.make ~name:"sim/event_queue steady 128 pop+add"
    (Staged.stage (fun () ->
         let now = Sim.Event_queue.next_time_us q in
         ignore (Sim.Event_queue.pop_value q);
         schedule now))

(* The same steady state through the engine: each event schedules its
   successor with [Engine.schedule] and the next delay of [steady_delays],
   so the queue's lanes take the repeated delays. One run executes one
   event. *)
let bench_engine_steady =
  let e = Sim.Engine.create () in
  let i = ref 0 in
  let rec tick () =
    incr i;
    let delay = steady_delays.(!i mod Array.length steady_delays) in
    ignore (Sim.Engine.schedule e ~delay:(Sim.Sim_time.span_us delay) tick)
  in
  for _ = 1 to 128 do
    tick ()
  done;
  Test.make ~name:"sim/engine steady 128 schedule+run"
    (Staged.stage (fun () -> ignore (Sim.Engine.step e)))

(* The same engine loop with delays that never recur soon: 4 096 distinct
   values in a shuffled cycle, so no delay is sighted twice in a row and
   every event pays the missed lane lookup before it takes the heap. *)
let bench_engine_random =
  let delays = Array.init 4_096 (fun k -> 1 + (24 * k)) in
  Sim.Rng.shuffle (Sim.Rng.create 11L) delays;
  let e = Sim.Engine.create () in
  let i = ref 0 in
  let rec tick () =
    incr i;
    let delay = delays.(!i land 4_095) in
    ignore (Sim.Engine.schedule e ~delay:(Sim.Sim_time.span_us delay) tick)
  in
  for _ = 1 to 128 do
    tick ()
  done;
  Test.make ~name:"sim/engine random 128 schedule+run"
    (Staged.stage (fun () -> ignore (Sim.Engine.step e)))

let bench_rng =
  let r = Sim.Rng.create 7L in
  Test.make ~name:"sim/rng int64" (Staged.stage (fun () -> ignore (Sim.Rng.int64 r)))

let bench_certifier =
  let c = Db.Certifier.create () in
  let i = ref 0 in
  Test.make ~name:"db/certify writeset"
    (Staged.stage (fun () ->
         incr i;
         let ws =
           {
             Db.Transaction.tx_id = !i;
             ws_client = 0;
             read_items = [ !i land 1023; (!i + 7) land 1023 ];
             write_values = [ ((!i + 13) land 1023, !i) ];
           }
         in
         ignore (Db.Certifier.certify c ~start:(Db.Certifier.current_version c) ~ws)))

(* State transfer's certifier cost: every live peer answering a
   [Join_req] exports its whole certification state. 10 000 written items
   is the size of the default item space fully touched. *)
let bench_certifier_export =
  let c = Db.Certifier.create () in
  for item = 0 to 9_999 do
    Db.Certifier.note_commit c ~write_items:[ item ]
  done;
  Test.make ~name:"db/certifier export 10k"
    (Staged.stage (fun () -> ignore (Db.Certifier.export c)))

(* State transfer's testable-transaction cost: a snapshot freezes the
   replica's whole view. 10 000 decided transactions, one in eight
   aborted. *)
let bench_testable_freeze =
  let t = Db.Testable_tx.create () in
  for id = 0 to 9_999 do
    Db.Testable_tx.record t id
      (if id land 7 = 0 then Db.Testable_tx.Aborted else Db.Testable_tx.Committed)
  done;
  Test.make ~name:"db/testable_tx freeze 10k"
    (Staged.stage (fun () -> ignore (Db.Testable_tx.freeze t)))

(* The WAL hardening cost: one framed encode (checksum included) and one
   decode+verify of a typical two-write commit record. The budget is <=10%
   on the append path; this pins the absolute per-record cost of the framed
   WAL, both checksum passes included. *)
let bench_wal_codec =
  let i = ref 0 in
  Test.make ~name:"db/wal frame encode+decode"
    (Staged.stage (fun () ->
         incr i;
         let frame =
           Db.Wal_codec.encode ~seq:!i ~tx:!i ~decision:Db.Certifier.Commit
             ~writes:[ (!i land 1023, !i); ((!i + 7) land 1023, !i) ]
         in
         ignore (Db.Wal_codec.decode frame)))

let bench_lock_table =
  let lt = Db.Lock_table.create () in
  let i = ref 0 in
  Test.make ~name:"db/lock acquire+release"
    (Staged.stage (fun () ->
         incr i;
         ignore
           (Db.Lock_table.acquire lt ~tx:!i ~item:(!i land 255) ~mode:Db.Lock_table.Exclusive
              ~granted:(fun () -> ()));
         Db.Lock_table.release_all lt ~tx:!i))

(* The observability hot path: what every instrumented protocol step pays.
   The ISSUE-5 budget is <5% on the macro benchmarks; these pin the
   absolute cost so a histogram or counter regression is visible on its
   own. *)
let bench_obs_histogram =
  let h = Obs.Histogram.create () in
  let i = ref 0 in
  Test.make ~name:"obs/histogram add"
    (Staged.stage (fun () ->
         incr i;
         Obs.Histogram.add h (!i land 0xfffff)))

let bench_obs_counter =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "bench.counter" in
  Test.make ~name:"obs/counter inc" (Staged.stage (fun () -> Obs.Registry.inc c))

(* Atomic-broadcast rounds in a live 3-node simulated cluster. State
   persists across runs; each run appends more entries to the replicated
   log. One cluster per engine tuning, so the seed, batched and ring
   backends are each pinned as their own micro. *)
module Abcast_bench = struct
  module V = struct
    type t = int

    let equal = Int.equal
    let pp = Format.pp_print_int
  end

  module Ab =
    Gcs.Atomic_broadcast.Make
      (V)
      (struct
        type t = unit
      end)

  (* A settled 3-member cluster: (engine, first member, delivered count). *)
  let cluster ?tuning () =
    let engine = Sim.Engine.create () in
    let network = Net.Network.create engine Net.Network.lan_config in
    let delivered = ref 0 in
    let nodes =
      List.init 3 (fun i ->
          let id = Net.Node_id.make ~index:i ~label:(Printf.sprintf "B%d" i) in
          let process = Sim.Process.create engine ~name:(Net.Node_id.label id) in
          Net.Endpoint.attach network ~id ~process ())
    in
    let group = List.map Net.Endpoint.id nodes in
    let members =
      List.map
        (fun ep ->
          Ab.create ep ~group ?tuning
            ~deliver:(fun _ -> incr delivered)
            ~get_snapshot:(fun () -> ())
            ~install_snapshot:(fun () -> ())
            ~cold_start:(fun () -> ())
            ())
        nodes
    in
    Sim.Engine.run ~until:(Sim.Sim_time.of_us 100_000) engine;
    (engine, List.hd members, delivered)

  (* Broadcasts [burst] values at the first member and steps the engine
     until all 3 members delivered them all. *)
  let make ~name ?tuning ~burst () =
    let engine, first, delivered = cluster ?tuning () in
    let value = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           let target = !delivered + (3 * burst) in
           for _ = 1 to burst do
             incr value;
             Ab.broadcast first !value
           done;
           while !delivered < target do
             if not (Sim.Engine.step engine) then failwith (name ^ ": queue empty")
           done))
end

let bench_abcast_round = Abcast_bench.make ~name:"gcs/abcast round (3 nodes, sim)" ~burst:1 ()

(* The PR-8 engines: a 32-value burst through one batched instance vs 32
   seed instances, and the ring backend's O(1)-per-node dissemination.
   Per-run cost is the whole burst, so compare like with like. *)
let bench_abcast_batched =
  Abcast_bench.make ~name:"gcs/abcast batched burst=32 (3 nodes, sim)"
    ~tuning:(Gcs.Bcast_tuning.batched ()) ~burst:32 ()

let bench_abcast_seed_burst =
  Abcast_bench.make ~name:"gcs/abcast seed burst=32 (3 nodes, sim)" ~burst:32 ()

let bench_abcast_ring =
  Abcast_bench.make ~name:"gcs/abcast ring burst=32 (3 nodes, sim)"
    ~tuning:(Gcs.Bcast_tuning.ring ~batch:32 ()) ~burst:32 ()

(* One complete transaction (submit -> client response) on a small
   group-safe system. *)
let bench_transaction =
  let params =
    {
      Workload.Params.table4 with
      Workload.Params.servers = 3;
      items = 1000;
      hot_fraction = 0.;
      hot_items = 0;
    }
  in
  let sys =
    Groupsafe.System.create ~params ~trace_enabled:false
      (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode)
  in
  let engine = Groupsafe.System.engine sys in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let generator = Workload.Generator.create params rng in
  Groupsafe.System.run_for sys (Sim.Sim_time.span_ms 100.);
  Test.make ~name:"groupsafe/transaction end-to-end (sim)"
    (Staged.stage (fun () ->
         let responded = ref false in
         Groupsafe.System.submit sys
           ~delegate:(Sim.Rng.int rng 3)
           ~on_response:(fun _ -> responded := true)
           (Workload.Generator.next generator ~client:0);
         while not !responded do
           if not (Sim.Engine.step engine) then failwith "bench_transaction: queue empty"
         done))

let micro_tests =
  Test.make_grouped ~name:"micro"
    [
      bench_event_queue;
      bench_event_queue_steady;
      bench_engine_steady;
      bench_engine_random;
      bench_rng;
      bench_certifier;
      bench_certifier_export;
      bench_testable_freeze;
      bench_wal_codec;
      bench_lock_table;
      bench_obs_histogram;
      bench_obs_counter;
      bench_abcast_round;
      bench_abcast_seed_burst;
      bench_abcast_batched;
      bench_abcast_ring;
      bench_transaction;
    ]

(* Runs the micro suite and returns [(name, ns_per_run)] sorted by name. *)
let run_micro () =
  Harness.Report.section "Micro-benchmarks (Bechamel, ns per run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances micro_tests in
  let results = Analyze.all ols (List.hd instances) raw in
  let measured =
    Analysis.Det_tbl.fold ~cmp:String.compare
      (fun name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> (name, e) :: acc
        | Some [] | None -> acc)
      results []
    |> List.sort compare
  in
  Harness.Report.table ~header:[ "benchmark"; "ns/run" ]
    (List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f" ns ]) measured);
  measured

(* ---- Multicore speedup probe ---- *)

(* The same fixed Fig. 9 sweep at 1 worker and at 4, wall clocks compared:
   the repo's standing claim that experiment regeneration parallelises.
   (Tables and CSV are byte-identical across the two runs — that property
   is asserted by the test suite; here we only measure.) *)
let speedup_probe ~fast ~restore_jobs () =
  Harness.Report.section "Multicore speedup probe (fig9 sweep, 1 vs 4 workers)";
  let loads = [ 20.; 30.; 40. ] in
  let measure_s = if fast then 5. else 15. in
  let sweep jobs =
    Parallel.Domain_pool.set_default_jobs jobs;
    let csv = Filename.temp_file "groupsafe_probe" ".csv" in
    let t0 = Unix.gettimeofday () in
    Harness.Experiment.fig9 ~loads ~measure_s ~replications:2 ~csv_path:csv ();
    let wall = Unix.gettimeofday () -. t0 in
    Sys.remove csv;
    wall
  in
  let wall_1 = sweep 1 in
  let wall_4 = sweep 4 in
  Parallel.Domain_pool.set_default_jobs restore_jobs;
  let speedup = if wall_4 > 0. then wall_1 /. wall_4 else 0. in
  let cores = Domain.recommended_domain_count () in
  Harness.Report.table ~header:[ "workers"; "wall (s)" ]
    [
      [ "1"; Printf.sprintf "%.2f" wall_1 ];
      [ "4"; Printf.sprintf "%.2f" wall_4 ];
    ];
  Harness.Report.note
    (Printf.sprintf "speedup at 4 workers: %.2fx on a %d-core host" speedup cores);
  if cores < 4 then
    Harness.Report.note
      "(the host has fewer than 4 cores: extra domains only add overhead here; \
       the probe needs a 4-core machine to show the parallel gain)";
  ( wall_1,
    wall_4,
    speedup,
    cores,
    Printf.sprintf "fig9 loads=20/30/40 measure_s=%.0f replications=2" measure_s )

(* ---- BENCH_*.json emission ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json ~path ~fast ~jobs ~total_wall_s ~timings ~probe ~micro =
  let wall_1, wall_4, speedup, cores, workload = probe in
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"groupsafe-bench/1\",\n";
  p "  \"fast\": %b,\n" fast;
  p "  \"jobs\": %d,\n" jobs;
  p "  \"total_wall_s\": %.3f,\n" total_wall_s;
  p "  \"experiments\": [\n";
  List.iteri
    (fun i t ->
      (* Sections that never spin up a simulation (table4, table1: static
         parameter/summary tables) report 0 events; mark them so readers
         don't mistake the 0 events/sec for a stalled simulator. *)
      p "    {\"section\": \"%s\", \"wall_s\": %.3f, \"events\": %d, \"events_per_sec\": %.0f%s}%s\n"
        (json_escape t.Harness.Report.section) t.Harness.Report.wall_s t.Harness.Report.events
        (Harness.Report.events_per_sec t)
        (if t.Harness.Report.events = 0 then ", \"no_sim\": true" else "")
        (if i < List.length timings - 1 then "," else ""))
    timings;
  p "  ],\n";
  p "  \"speedup_probe\": {\"workload\": \"%s\", \"host_cores\": %d, \"wall_s_jobs1\": %.3f, \"wall_s_jobs4\": %.3f, \"speedup\": %.3f},\n"
    (json_escape workload) cores wall_1 wall_4 speedup;
  p "  \"micro\": [\n";
  List.iteri
    (fun i (name, ns) ->
      p "    {\"name\": \"%s\", \"ns_per_run\": %.2f}%s\n" (json_escape name) ns
        (if i < List.length micro - 1 then "," else ""))
    micro;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Printf.printf "\n[benchmark trajectory written to %s]\n" path

(* ---- Baseline comparison (--check-against) ----

   We parse only what we emit: each micro entry sits on its own line as
   {"name": "...", "ns_per_run": N}, so a line scanner is enough — no JSON
   library needed (and none may be added). *)

let find_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else at (i + 1)
  in
  at 0

let baseline_micro path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       match (find_substring line "\"name\": \"", find_substring line "\"ns_per_run\": ") with
       | Some ni, Some vi ->
           let name_start = ni + String.length "\"name\": \"" in
           let name_end = String.index_from line name_start '"' in
           let name = String.sub line name_start (name_end - name_start) in
           let value_start = vi + String.length "\"ns_per_run\": " in
           let value_end = ref value_start in
           while
             !value_end < String.length line
             && (match line.[!value_end] with
                | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
                | _ -> false)
           do
             incr value_end
           done;
           let ns = float_of_string (String.sub line value_start (!value_end - value_start)) in
           entries := (name, ns) :: !entries
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* Fails (returns the number of regressions) if any current micro-benchmark
   is more than 30% slower than the baseline. A 2 ns absolute slack damps
   CI jitter on the nanosecond-scale entries. *)
let check_against ~baseline_path ~micro =
  let baseline = baseline_micro baseline_path in
  Harness.Report.section
    (Printf.sprintf "Regression check against %s (fail if >30%% slower)" baseline_path);
  if baseline = [] then begin
    Harness.Report.note "baseline has no micro entries; nothing to check";
    0
  end
  else begin
    let regressions = ref 0 in
    let rows =
      List.filter_map
        (fun (name, base_ns) ->
          match List.assoc_opt name micro with
          | None ->
              Harness.Report.note (Printf.sprintf "skipped (not measured now): %s" name);
              None
          | Some cur_ns ->
              let limit = (base_ns *. 1.30) +. 2.0 in
              let regressed = cur_ns > limit in
              if regressed then incr regressions;
              Some
                [
                  name;
                  Printf.sprintf "%.1f" base_ns;
                  Printf.sprintf "%.1f" cur_ns;
                  Printf.sprintf "%+.0f%%" ((cur_ns /. base_ns -. 1.) *. 100.);
                  (if regressed then "REGRESSED" else "ok");
                ])
        baseline
    in
    Harness.Report.table ~header:[ "benchmark"; "baseline ns"; "current ns"; "delta"; "verdict" ] rows;
    !regressions
  end

(* ---- Entry point ---- *)

let parse_args () =
  let json_path = ref None and baseline_path = ref None in
  let rec go = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json_path := Some path;
        go rest
    | "--check-against" :: path :: rest ->
        baseline_path := Some path;
        go rest
    | arg :: _ ->
        Printf.eprintf
          "usage: %s [--json PATH] [--check-against BASELINE.json]\nunknown argument: %s\n"
          Sys.executable_name arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  (!json_path, !baseline_path)

let () =
  let json_path, baseline_path = parse_args () in
  let fast =
    match Sys.getenv_opt "BENCH_FAST" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false
  in
  (match Sys.getenv_opt "BENCH_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Parallel.Domain_pool.set_default_jobs n
      | _ -> Printf.eprintf "ignoring invalid BENCH_JOBS=%s\n" s)
  | None -> ());
  let jobs = Parallel.Domain_pool.default_jobs () in
  Printf.printf "groupsafe bench: %s mode, parallel sweeps on %d worker domain(s)\n"
    (if fast then "fast" else "full")
    jobs;
  let t0 = Unix.gettimeofday () in
  Harness.Experiment.all ~fast ();
  let experiments_wall = Unix.gettimeofday () -. t0 in
  Printf.printf "\n[experiment suite: %.1f s wall clock]\n" experiments_wall;
  let timings = Harness.Report.timings () in
  let probe = speedup_probe ~fast ~restore_jobs:jobs () in
  let micro = run_micro () in
  let total_wall_s = Unix.gettimeofday () -. t0 in
  (match json_path with
  | Some path -> write_json ~path ~fast ~jobs ~total_wall_s ~timings ~probe ~micro
  | None -> ());
  match baseline_path with
  | None -> ()
  | Some baseline_path ->
      let regressions = check_against ~baseline_path ~micro in
      if regressions > 0 then begin
        Printf.eprintf "\n%d micro-benchmark(s) regressed >30%% against %s\n" regressions
          baseline_path;
        exit 1
      end
      else Printf.printf "\n[no micro-benchmark regressions against %s]\n" baseline_path
