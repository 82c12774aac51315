(* Tests for the harness: report formatting, the analytic models, load
   points (sanity and determinism), the measured window a load point is
   folded from (warm-up edges, shard merge order), replayable crash
   storms, and two randomized crash-storm properties: group-safe
   replication never loses an acknowledged transaction while the group
   survives, and 2-safe replication never loses one at all. *)

open Groupsafe

let sec x = Sim.Sim_time.span_s x
let ms = Sim.Sim_time.span_ms
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Report ---- *)

let test_report_formatting () =
  Alcotest.(check string) "f1" "3.1" (Harness.Report.f1 3.14159);
  Alcotest.(check string) "f1 nan" "-" (Harness.Report.f1 Float.nan);
  Alcotest.(check string) "f2" "3.14" (Harness.Report.f2 3.14159);
  Alcotest.(check string) "pct" "7.1%" (Harness.Report.pct 0.0712);
  Alcotest.check_raises "ragged table" (Invalid_argument "Report.table: ragged row") (fun () ->
      Harness.Report.table ~header:[ "a"; "b" ] [ [ "1" ] ])

let test_report_csv_roundtrip () =
  let path = Filename.temp_file "groupsafe" ".csv" in
  Harness.Report.csv ~path ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ];
  let ic = open_in path in
  let lines = List.init 3 (fun _ -> input_line ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string)) "contents" [ "x,y"; "1,2"; "3,4" ] lines

(* ---- Analysis ---- *)

let test_binomial_tail () =
  Alcotest.(check (float 1e-9)) "k=0 is certain" 1. (Harness.Analysis.binomial_tail ~n:5 ~k:0 ~p:0.3);
  Alcotest.(check (float 1e-9))
    "all heads" (0.5 ** 3.)
    (Harness.Analysis.binomial_tail ~n:3 ~k:3 ~p:0.5);
  (* P(X >= 2) for Bin(2, p) = p^2 *)
  Alcotest.(check (float 1e-9)) "pair" 0.01 (Harness.Analysis.binomial_tail ~n:2 ~k:2 ~p:0.1)

let test_group_failure_monotone_decreasing () =
  let p n = Harness.Analysis.group_failure_probability ~n ~server_unavailability:0.01 in
  check_bool "decreases with n" true (p 3 > p 5 && p 5 > p 9 && p 9 > p 15)

let test_lazy_conflict_rate_monotone_increasing () =
  let params = Workload.Params.table4 in
  let r n =
    Harness.Analysis.lazy_conflict_rate params ~load_tps:(3.33 *. float_of_int n) ~window_s:0.1 ~n
  in
  check_bool "increases with n" true (r 3 < r 5 && r 5 < r 9 && r 9 < r 15)

let test_item_overlap_probability_bounds () =
  let params = Workload.Params.table4 in
  let p = Harness.Analysis.item_overlap_probability params in
  check_bool "a probability" true (p > 0. && p < 1.);
  (* More skew, more overlap. *)
  let hotter = { params with Workload.Params.hot_fraction = 0.5 } in
  check_bool "skew increases overlap" true (Harness.Analysis.item_overlap_probability hotter > p)

(* ---- Load points ---- *)

let test_load_point_sane () =
  let p =
    Harness.Experiment.run_load_point ~measure_s:10.
      (System.Dsm Dsm_replica.Group_safe_mode) ~load_tps:20.
  in
  check_bool "responses collected" true (p.Harness.Experiment.completed > 100);
  check_bool "mean positive" true (p.Harness.Experiment.mean_ms > 10.);
  check_bool "p95 above mean" true (p.Harness.Experiment.p95_ms >= p.Harness.Experiment.mean_ms);
  check_bool "throughput near offered" true
    (p.Harness.Experiment.throughput_tps > 12. && p.Harness.Experiment.throughput_tps < 25.)

let test_load_point_deterministic () =
  let run () =
    Harness.Experiment.run_load_point ~seed:42L ~measure_s:5.
      (System.Lazy Lazy_replica.One_safe_mode) ~load_tps:20.
  in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-9)) "same mean" a.Harness.Experiment.mean_ms b.Harness.Experiment.mean_ms;
  check_int "same count" a.Harness.Experiment.completed b.Harness.Experiment.completed

let test_closed_loop_point_self_throttles () =
  let tput_long, resp_long, _ =
    Harness.Experiment.run_closed_point ~measure_s:15.
      (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode) ~think_time_s:1.6
  in
  let tput_short, resp_short, _ =
    Harness.Experiment.run_closed_point ~measure_s:15.
      (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode) ~think_time_s:0.5
  in
  check_bool "shorter think, more throughput" true (tput_short > tput_long);
  check_bool "shorter think, longer responses" true (resp_short > resp_long);
  (* Little's law sanity: throughput can never exceed clients/think. *)
  check_bool "bounded by client population" true (tput_short < 36. /. 0.5)

let test_load_point_orders_group_safe_under_lazy () =
  let run technique =
    (Harness.Experiment.run_load_point ~measure_s:15. technique ~load_tps:24.)
      .Harness.Experiment.mean_ms
  in
  let gs = run (System.Dsm Dsm_replica.Group_safe_mode) in
  let lazy1 = run (System.Lazy Lazy_replica.One_safe_mode) in
  let g1s = run (System.Dsm Dsm_replica.Group_one_safe_mode) in
  check_bool "fig9 ordering at moderate load" true (gs < lazy1 && lazy1 < g1s)

(* ---- Measured window ---- *)

(* Hand-built books for [point_of_books]: instants in ms, the warm-up at
   1 s, the drain ending at 3 s unless stated. *)
let at_ms x = Sim.Sim_time.of_us (int_of_float (Float.round (x *. 1000.)))

let answer ?(outcome = Db.Testable_tx.Committed) ~submitted ~answered tx =
  { System.tx; outcome; at = at_ms answered; submitted_at = at_ms submitted; update = true }

let window ?(until = 3000.) books =
  Harness.Experiment.point_of_books (System.Dsm Dsm_replica.Group_safe_mode) ~load_tps:1.
    ~warmup_at:(at_ms 1000.) ~until:(at_ms until) ~registry:(Obs.Registry.create ()) books

let check_float msg expected got = check_bool msg true (Float.equal expected got)

let test_window_answer_at_warmup_counts () =
  let { Harness.Experiment.completed; mean_ms; throughput_tps; abort_rate; _ } =
    window
      [ [ answer ~submitted:1000. ~answered:1000. 0; answer ~submitted:1000. ~answered:1004. 1 ] ]
  in
  check_int "both response samples" 2 completed;
  check_float "mean response" 2. mean_ms;
  check_float "two commits over the 2 s window" 1. throughput_tps;
  check_float "no aborts" 0. abort_rate

let test_window_early_submission_adds_no_sample () =
  let { Harness.Experiment.completed; mean_ms; throughput_tps; abort_rate; _ } =
    window
      [
        [
          answer ~submitted:900. ~answered:1010. 0;
          answer ~outcome:Db.Testable_tx.Aborted ~submitted:990. ~answered:1020. 1;
          answer ~submitted:1100. ~answered:1106. 2;
        ];
      ]
  in
  check_int "only the post-warm-up submission is a sample" 1 completed;
  check_float "its response time" 6. mean_ms;
  check_float "both commits count" 1. throughput_tps;
  check_float "the abort counts" (1. /. 3.) abort_rate

let test_window_answer_before_warmup_ignored () =
  let { Harness.Experiment.completed; mean_ms; throughput_tps; abort_rate; _ } =
    window
      [
        [
          answer ~submitted:100. ~answered:999. 0;
          answer ~outcome:Db.Testable_tx.Aborted ~submitted:200. ~answered:500. 1;
        ];
      ]
  in
  check_int "no sample" 0 completed;
  check_bool "no mean" true (Float.is_nan mean_ms);
  check_float "no commit" 0. throughput_tps;
  check_bool "nothing decided" true (Float.is_nan abort_rate);
  List.iter
    (fun books ->
      check_bool "nothing decided in empty books" true
        (Float.is_nan (window books).Harness.Experiment.abort_rate))
    [ []; [ [] ]; [ []; [] ] ]

(* Two shards' books, 1.1 s measured. The values are chosen so that both
   the running mean and the throughput sum round differently in another
   order or grouping: the point must add shard 0's samples, then shard
   1's, and sum per-shard quotients. *)
let test_window_merges_shards_in_order () =
  let book responses =
    List.mapi
      (fun i r ->
        let s = 1000. +. (10. *. float_of_int i) in
        answer ~submitted:s ~answered:(s +. r) i)
      responses
  in
  let r0 = [ 2.5; 5.5; 1.5 ] and r1 = [ 8.8; 10.7; 0.3; 4.2; 4.2 ] in
  let { Harness.Experiment.completed; mean_ms; throughput_tps; _ } =
    window ~until:2100. [ book r0; book r1 ]
  in
  let mean_of rs =
    let s = Sim.Stats.series "reference" in
    List.iter (Sim.Stats.add s) rs;
    Sim.Stats.mean s
  in
  check_int "every sample" 8 completed;
  check_float "mean in shard order" (mean_of (r0 @ r1)) mean_ms;
  check_bool "the other order differs" false (Float.equal (mean_of (r1 @ r0)) mean_ms);
  check_float "throughput is the per-shard sum" ((3. /. 1.1) +. (5. /. 1.1)) throughput_tps;
  check_bool "not the pooled quotient" false (Float.equal (8. /. 1.1) throughput_tps)

(* ---- Crash storms ---- *)

(* Random crash/recovery churn for [duration]: each server stays up an
   exponential [mean_up], then, if fewer than [max_down] servers are
   down, crashes for an exponential [mean_down]. With [max_down < quorum]
   the group never fails. [rng] is split once per server before anything
   is scheduled and each server draws only from its own stream, so a
   server's instants depend on the seed and its index alone, never on how
   the servers' events interleave: a storm replays under perturbation. *)
let crash_storm sys ~rng ~duration ~max_down ~mean_up ~mean_down =
  let after delay f = Sim.Engine.schedule (System.engine sys) ~delay f in
  let deadline = Sim.Sim_time.add (System.now sys) duration in
  let down = ref 0 in
  let rec schedule_crash i server_rng =
    let delay = Sim.Rng.exponential_span server_rng ~mean:mean_up in
    after delay (fun () ->
        if Sim.Sim_time.(System.now sys < deadline) then begin
          if !down < max_down && System.alive sys i then begin
            incr down;
            System.crash sys i;
            let outage = Sim.Rng.exponential_span server_rng ~mean:mean_down in
            after outage (fun () ->
                decr down;
                System.recover sys i;
                schedule_crash i server_rng)
          end
          else schedule_crash i server_rng
        end)
  in
  for i = 0 to System.n_servers sys - 1 do
    schedule_crash i (Sim.Rng.split rng)
  done

let storm_params =
  {
    Workload.Params.table4 with
    Workload.Params.servers = 5;
    items = 300;
    hot_fraction = 0.;
    hot_items = 0;
  }

let test_crash_storm_replayable () =
  let build () =
    System.create ~seed:11L
      ~params:{ storm_params with Workload.Params.servers = 3; items = 32 }
      ~trace_enabled:false (System.Lazy Lazy_replica.Zero_safe_mode)
  in
  (* max_down above the server count: a server's crash/recover instants
     then depend only on its own stream, never on the shared down
     counter. *)
  let storm sys =
    crash_storm sys ~rng:(Sim.Rng.create 99L) ~duration:(sec 10.) ~max_down:4 ~mean_up:(sec 1.)
      ~mean_down:(ms 300.)
  in
  let a = build () in
  storm a;
  System.run_for a (sec 12.);
  let b = build () in
  storm b;
  (* Perturb only S0 with an extra crash/recover pair the storm knows
     nothing about. A storm drawing all servers' delays from one shared
     stream in event order would reshuffle its draws here and move S1's
     and S2's schedules too; with per-server split streams they must not
     move. *)
  Sim.Engine.schedule (System.engine b) ~delay:(ms 400.) (fun () -> System.crash b 0);
  Sim.Engine.schedule (System.engine b) ~delay:(ms 650.) (fun () -> System.recover b 0);
  System.run_for b (sec 12.);
  let crash_times sys i =
    List.map Sim.Sim_time.to_us (System.history sys i).Gcs.Process_class.crashes
  in
  Alcotest.(check (list int)) "S1 unmoved" (crash_times a 1) (crash_times b 1);
  Alcotest.(check (list int)) "S2 unmoved" (crash_times a 2) (crash_times b 2);
  check_bool "S0 actually perturbed" true (crash_times a 0 <> crash_times b 0)

let prop_group_safe_survives_minority_storms =
  QCheck2.Test.make ~name:"group-safe: no acknowledged loss while the group survives" ~count:8
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let sys =
        System.create ~seed:(Int64.of_int seed) ~params:storm_params
          (System.Dsm Dsm_replica.Group_safe_mode)
      in
      let engine = System.engine sys in
      let rng = Sim.Rng.split (Sim.Engine.rng engine) in
      let generator = Workload.Generator.create storm_params (Sim.Rng.split rng) in
      let submit () =
        let delegate = Sim.Rng.int rng 5 in
        System.submit sys ~delegate (Workload.Generator.next generator ~client:0)
      in
      let arrival =
        Workload.Arrival.open_poisson engine ~rng:(Sim.Rng.split rng) ~rate_tps:10. submit
      in
      (* Random crash/recovery churn, never more than a minority down. *)
      crash_storm sys ~rng:(Sim.Rng.split rng) ~duration:(sec 20.) ~max_down:2
        ~mean_up:(sec 3.) ~mean_down:(sec 1.);
      System.run_for sys (sec 20.);
      Workload.Arrival.stop arrival;
      (* Let recoveries and the pipeline settle. *)
      List.iter (fun i -> System.recover sys i) [ 0; 1; 2; 3; 4 ];
      System.run_for sys (sec 10.);
      let report = Safety_checker.analyse sys in
      (not (System.group_failed sys)) && report.Safety_checker.lost = [])

let prop_two_safe_survives_any_storm =
  QCheck2.Test.make ~name:"2-safe: no acknowledged loss even through group failures" ~count:4
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let params = { storm_params with Workload.Params.servers = 3 } in
      let sys =
        System.create ~seed:(Int64.of_int seed) ~params (System.Dsm Dsm_replica.Two_safe_mode)
      in
      let engine = System.engine sys in
      let rng = Sim.Rng.split (Sim.Engine.rng engine) in
      let generator = Workload.Generator.create params (Sim.Rng.split rng) in
      let submit () =
        let delegate = Sim.Rng.int rng 3 in
        System.submit sys ~delegate (Workload.Generator.next generator ~client:0)
      in
      let arrival =
        Workload.Arrival.open_poisson engine ~rng:(Sim.Rng.split rng) ~rate_tps:6. submit
      in
      (* Unrestricted churn: group failures allowed. *)
      crash_storm sys ~rng:(Sim.Rng.split rng) ~duration:(sec 15.) ~max_down:3
        ~mean_up:(sec 2.) ~mean_down:(ms 800.);
      System.run_for sys (sec 15.);
      Workload.Arrival.stop arrival;
      List.iter (fun i -> System.recover sys i) [ 0; 1; 2 ];
      System.run_for sys (sec 20.);
      let report = Safety_checker.analyse sys in
      report.Safety_checker.lost = [])

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "harness"
    [
      ( "report",
        [
          Alcotest.test_case "formatting" `Quick test_report_formatting;
          Alcotest.test_case "csv roundtrip" `Quick test_report_csv_roundtrip;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "binomial tail" `Quick test_binomial_tail;
          Alcotest.test_case "group failure decreasing" `Quick
            test_group_failure_monotone_decreasing;
          Alcotest.test_case "lazy conflicts increasing" `Quick
            test_lazy_conflict_rate_monotone_increasing;
          Alcotest.test_case "overlap probability" `Quick test_item_overlap_probability_bounds;
        ] );
      ( "load_points",
        [
          Alcotest.test_case "sane" `Slow test_load_point_sane;
          Alcotest.test_case "deterministic" `Slow test_load_point_deterministic;
          Alcotest.test_case "fig9 ordering" `Slow test_load_point_orders_group_safe_under_lazy;
          Alcotest.test_case "closed loop self-throttles" `Slow
            test_closed_loop_point_self_throttles;
        ] );
      ( "window",
        [
          Alcotest.test_case "an answer at the warm-up instant counts" `Quick
            test_window_answer_at_warmup_counts;
          Alcotest.test_case "an early submission adds no sample" `Quick
            test_window_early_submission_adds_no_sample;
          Alcotest.test_case "an answer before the warm-up is ignored" `Quick
            test_window_answer_before_warmup_ignored;
          Alcotest.test_case "shards merge in shard order" `Quick
            test_window_merges_shards_in_order;
        ] );
      ( "storms",
        Alcotest.test_case "crash storm replayable" `Quick test_crash_storm_replayable
        :: qsuite [ prop_group_safe_survives_minority_storms; prop_two_safe_survives_any_storm ] );
    ]
