(* Tests for the checking subsystem: schedule representation and
   shrinking, the exhaustive generator's canonical ordering, the Fig. 5
   rediscovery, loss-freedom certification of the safe configurations, a
   violation sweep over every technique and crash-pattern class,
   determinism of exploration, and the amnesiac mutation test of the
   safety oracle itself. *)

open Groupsafe
module E = Check.Explorer
module S = Check.Schedule

let sec = Sim.Sim_time.span_s
let ms = Sim.Sim_time.span_ms
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let crash i at = { S.at; kind = S.Crash i }
let recover i at = { S.at; kind = S.Recover i }

(* ---- Schedule ---- *)

let test_schedule_canonical_order () =
  let a = S.make ~servers:3 ~txs:1 ~spacing:(ms 5.) [ crash 2 (ms 4.); crash 0 (ms 2.); crash 1 (ms 2.) ] in
  let b = S.make ~servers:3 ~txs:1 ~spacing:(ms 5.) [ crash 1 (ms 2.); crash 2 (ms 4.); crash 0 (ms 2.) ] in
  check_bool "event order is canonical" true (S.equal a b);
  check_int "out-of-range servers dropped" 1
    (S.event_count (S.make ~servers:2 ~txs:1 ~spacing:(ms 5.) [ crash 0 (ms 1.); crash 5 (ms 1.) ]))

let test_shrink_candidates () =
  let s =
    S.make ~servers:3 ~txs:2 ~spacing:(ms 5.) [ crash 0 (ms 2.); crash 1 (ms 2.); crash 2 (ms 2.) ]
  in
  let candidates = S.shrink s in
  check_bool "no candidate equals the original" true
    (List.for_all (fun c -> not (S.equal c s)) candidates);
  check_bool "drops single events" true
    (List.exists (fun c -> S.event_count c = 2 && c.S.servers = 3) candidates);
  check_bool "reduces the transaction count" true (List.exists (fun c -> c.S.txs = 1) candidates);
  check_bool "removes a server (and its events)" true
    (List.exists (fun c -> c.S.servers = 2 && S.event_count c = 2) candidates)

let test_exhaustive_canonical_first () =
  let cfg = E.default_config ~predicate:E.Any_loss (System.Dsm Dsm_replica.Group_safe_mode) in
  let all = List.of_seq (E.exhaustive cfg ~slots:[ ms 2. ] ~max_events:3 ~recoveries:false) in
  check_int "sizes 1..3 over 3 crash events" 7 (List.length all);
  let first_of_size_3 = List.find (fun s -> S.event_count s = 3) all in
  let fig5 =
    S.make ~servers:3 ~txs:cfg.E.txs ~spacing:cfg.E.spacing
      [ crash 0 (ms 2.); crash 1 (ms 2.); crash 2 (ms 2.) ]
  in
  check_bool "whole-group crash is the first 3-event schedule" true (S.equal first_of_size_3 fig5)

(* ---- Fig. 5 rediscovery ---- *)

let test_fig5_rediscovered_and_shrunk () =
  let cfg = E.default_config ~predicate:E.Any_loss (System.Dsm Dsm_replica.Group_safe_mode) in
  let r = E.explore ~seed:42L ~budget:500 cfg in
  match r.E.counterexample with
  | None -> Alcotest.fail "Fig. 5 loss not rediscovered within 500 schedules"
  | Some c ->
    check_bool "found by the bounded-exhaustive pass" true (c.E.found_in = E.Exhaustive);
    check_bool "within the seed budget" true (c.E.runs_to_find <= 500);
    check_bool "shrunk to at most 6 events" true (S.event_count c.E.shrunk <= 6);
    check_bool "shrinking never grows" true
      (S.event_count c.E.shrunk <= S.event_count c.E.original);
    let report = c.E.outcome.E.report in
    check_bool "an acknowledged transaction is permanently lost" true
      (report.Safety_checker.lost <> []);
    check_bool "the loss needed a whole-group failure" true report.Safety_checker.group_failed;
    check_bool "counterexample carries its trace" true (String.length c.E.outcome.E.trace > 0);
    check_bool "shrunk schedule still fails on replay" true (E.run cfg c.E.shrunk).E.failed

(* ---- Loss-freedom certification ---- *)

let certify technique =
  let r = E.explore ~seed:42L ~budget:1000 (E.default_config ~predicate:E.Any_loss technique) in
  check_int "full budget explored" 1000 r.E.runs;
  check_bool "no schedule loses an acknowledged transaction" true
    (Option.is_none r.E.counterexample)

let test_certify_e2e () = certify (System.Dsm Dsm_replica.Two_safe_mode)
let test_certify_twopc () = certify System.Two_pc

(* ---- Violation sweep: technique x crash-pattern class ---- *)

(* The Tables 2/3 crash-pattern classes, as explicit schedules (3 servers,
   delegate of the first transaction is S0). *)
let crash_pattern_classes =
  [
    ("no crash", []);
    ("minority: delegate dies", [ crash 0 (ms 2.) ]);
    ("group failure", [ crash 0 (ms 2.); crash 1 (ms 2.); crash 2 (ms 2.) ]);
    ( "group fails, delegate dies last and recovers first",
      [ crash 1 (ms 2.); crash 2 (ms 2.); crash 0 (ms 3.); recover 0 (ms 30.) ] );
  ]

let test_no_violation_fixed_classes () =
  List.iter
    (fun technique ->
      let cfg = E.default_config technique in
      List.iter
        (fun (name, events) ->
          let schedule = S.make ~servers:3 ~txs:cfg.E.txs ~spacing:cfg.E.spacing events in
          let o = E.run cfg schedule in
          check_bool (System.technique_name technique ^ " / " ^ name) false o.E.failed)
        crash_pattern_classes)
    System.all_techniques

let test_no_violation_random_sweep () =
  List.iter
    (fun technique ->
      let r = E.explore ~seed:1337L ~budget:120 (E.default_config technique) in
      check_bool (System.technique_name technique) true (Option.is_none r.E.counterexample))
    System.all_techniques

(* ---- Determinism ---- *)

let test_explore_deterministic () =
  let cfg = E.default_config ~predicate:E.Any_loss (System.Dsm Dsm_replica.Group_safe_mode) in
  let r1 = E.explore ~seed:42L ~budget:200 cfg in
  let r2 = E.explore ~seed:42L ~budget:200 cfg in
  Alcotest.(check string) "rendered reports byte-identical" (E.render_result r1)
    (E.render_result r2);
  match (r1.E.counterexample, r2.E.counterexample) with
  | Some a, Some b ->
    check_bool "counterexample traced" true (String.length a.E.outcome.E.trace > 0);
    Alcotest.(check string) "full traces byte-identical" a.E.outcome.E.trace b.E.outcome.E.trace
  | _ -> Alcotest.fail "expected a counterexample from both explorations"

(* ---- Amnesiac oracle self-test ---- *)

let storm_params =
  {
    Workload.Params.table4 with
    Workload.Params.servers = 3;
    items = 32;
    hot_fraction = 0.;
    hot_items = 0;
  }

(* Mutation-style: the 2-safe configuration survives a whole-group crash
   by replaying its durable log (Fig. 7). Break every replica so it wipes
   that log when it dies, and the same schedule must now end in a loss —
   and the oracle must say so, and say the level forbids it. If the
   checker were vacuous, the broken run would pass too. *)
let test_amnesiac_oracle () =
  let run ~amnesia =
    let sys =
      System.create ~seed:3L ~params:storm_params (System.Dsm Dsm_replica.Two_safe_mode)
    in
    if amnesia then
      for i = 0 to 2 do
        System.break_amnesiac sys i
      done;
    let acked = ref false in
    System.submit sys ~delegate:0
      ~on_response:(fun o -> if o = Db.Testable_tx.Committed then acked := true)
      (Db.Transaction.make ~id:0 ~client:0 [ Db.Op.Write (1, 1); Db.Op.Write (2, 1) ]);
    System.run_for sys (sec 2.);
    for i = 0 to 2 do
      System.crash sys i
    done;
    System.run_for sys (ms 100.);
    for i = 0 to 2 do
      System.recover sys i
    done;
    System.run_for sys (sec 6.);
    (!acked, Safety_checker.analyse sys)
  in
  let acked_clean, clean = run ~amnesia:false in
  let acked_broken, broken = run ~amnesia:true in
  check_bool "acknowledged (clean)" true acked_clean;
  check_bool "acknowledged (amnesiac)" true acked_broken;
  check_int "clean 2-safe run survives the group crash" 0 (List.length clean.Safety_checker.lost);
  check_bool "oracle reports the amnesiac loss" true (broken.Safety_checker.lost <> []);
  check_bool "and 2-safety forbids it" false
    (Safety_checker.losses_allowed broken ~delegate_crashed:(fun _ -> true))

(* A read-only transaction is acknowledged without broadcasting anything
   (there is no writeset to replicate), so no server's committed view ever
   holds it. The oracle must not call that a loss — not even after a whole
   group crash, since there was no durable effect to lose. This was a real
   false positive: the crash-storm properties flaked whenever the workload
   generator happened to draw an all-read transaction. *)
let test_read_only_commit_not_lost () =
  let sys =
    System.create ~seed:5L ~params:storm_params (System.Dsm Dsm_replica.Group_safe_mode)
  in
  let acked = ref false in
  System.submit sys ~delegate:0
    ~on_response:(fun o -> if o = Db.Testable_tx.Committed then acked := true)
    (Db.Transaction.make ~id:0 ~client:0 [ Db.Op.Read 1; Db.Op.Read 2 ]);
  System.run_for sys (sec 2.);
  for i = 0 to 2 do
    System.crash sys i
  done;
  System.run_for sys (ms 100.);
  for i = 0 to 2 do
    System.recover sys i
  done;
  System.run_for sys (sec 6.);
  let report = Safety_checker.analyse sys in
  check_bool "read-only tx acknowledged" true !acked;
  check_int "counted as an acked commit" 1 report.Safety_checker.acked_commits;
  check_int "but never lost" 0 (List.length report.Safety_checker.lost)

(* ---- Nemesis: network-fault schedules and healing convergence ---- *)

let partition_ev groups at = { S.at; kind = S.Partition groups }
let heal_ev at = { S.at; kind = S.Heal }
let window prob at until = { S.at; kind = S.Drop_window { prob; until } }
let dup i at = { S.at; kind = S.Duplicate_next i }
let us = Sim.Sim_time.span_us

let test_nemesis_shrink_candidates () =
  let s =
    S.make ~servers:3 ~txs:2 ~spacing:(ms 5.)
      [
        partition_ev [ [ 1 ] ] (ms 2.);
        heal_ev (ms 8.);
        window 0.5 (ms 1.) (ms 9.);
        crash 0 (ms 3.);
      ]
  in
  let candidates = S.shrink s in
  check_bool "drops the partition-heal pair as one fault" true
    (List.exists
       (fun c ->
         S.event_count c = 2
         && List.for_all
              (fun e ->
                match e.S.kind with S.Partition _ | S.Heal -> false | _ -> true)
              c.S.events)
       candidates);
  check_bool "halves a loss window towards its opening edge" true
    (List.exists
       (fun c ->
         List.exists
           (fun e ->
             match e.S.kind with
             | S.Drop_window { until; _ } -> Sim.Sim_time.span_to_us until = 5_000
             | _ -> false)
           c.S.events)
       candidates)

let test_nemesis_universe_gated () =
  let technique = System.Dsm Dsm_replica.Group_safe_mode in
  let count cfg =
    Seq.fold_left
      (fun n _ -> n + 1)
      0
      (E.exhaustive cfg ~slots:[ ms 2. ] ~max_events:1 ~recoveries:false)
  in
  check_int "crash-only universe without nemesis" 3
    (count (E.default_config ~predicate:E.Any_loss technique));
  (* 3 crashes + 3 single-server partitions + 1 heal + 3 duplicate marks. *)
  check_int "network faults join the universe under nemesis" 10
    (count (E.default_config ~predicate:E.Any_loss ~nemesis:true technique))

let nemesis_certify technique =
  let r =
    E.explore ~seed:42L ~budget:500 ~max_exhaustive_events:0 ~max_random_events:3
      (E.default_config ~predicate:E.Any_loss ~nemesis:true technique)
  in
  check_int "full budget explored" 500 r.E.runs;
  check_bool "every storm loss-free and convergent" true (Option.is_none r.E.counterexample)

let test_nemesis_certify_e2e () = nemesis_certify (System.Dsm Dsm_replica.Two_safe_mode)
let test_nemesis_certify_twopc () = nemesis_certify System.Two_pc

let test_nemesis_explore_deterministic () =
  let cfg =
    E.default_config ~predicate:E.Any_loss ~nemesis:true (System.Dsm Dsm_replica.Group_safe_mode)
  in
  let r1 = E.explore ~seed:7L ~budget:100 ~max_exhaustive_events:0 ~max_random_events:3 cfg in
  let r2 = E.explore ~seed:7L ~budget:100 ~max_exhaustive_events:0 ~max_random_events:3 cfg in
  Alcotest.(check string) "rendered reports byte-identical" (E.render_result r1)
    (E.render_result r2);
  match (r1.E.counterexample, r2.E.counterexample) with
  | None, None -> ()
  | Some a, Some b ->
    Alcotest.(check string) "full traces byte-identical" a.E.outcome.E.trace b.E.outcome.E.trace
  | _ -> Alcotest.fail "explorations disagreed on finding a counterexample"

let test_nemesis_tuned_engines () =
  (* Batched and ring engines must survive the same storms the seed engine
     certifies against: a window of in-flight Accepts crosses the
     retransmit path, and ring dissemination adds a forwarding hop the
     nemesis can cut mid-circulation. Small budget — the 500-storm runs
     live in the experiment harness certifications. *)
  List.iter
    (fun tuning ->
      let r =
        E.explore ~seed:42L ~budget:60 ~max_exhaustive_events:0 ~max_random_events:3
          (E.default_config ~predicate:E.Any_loss ~nemesis:true ~tuning
             (System.Dsm Dsm_replica.Two_safe_mode))
      in
      check_int
        (Printf.sprintf "full budget explored (%s)" (Gcs.Bcast_tuning.to_string tuning))
        60 r.E.runs;
      check_bool
        (Printf.sprintf "storms loss-free on %s" (Gcs.Bcast_tuning.to_string tuning))
        true
        (Option.is_none r.E.counterexample))
    [ Gcs.Bcast_tuning.batched (); Gcs.Bcast_tuning.ring () ]

let test_minority_stall_verdict () =
  let cfg =
    E.default_config ~predicate:E.Any_loss ~nemesis:true (System.Dsm Dsm_replica.Group_safe_mode)
  in
  let o = E.minority_stall cfg in
  check_int "no acks from the cut-off minority" 0 o.E.minority_acked_during;
  check_bool "nothing applied behind the partition" false o.E.minority_applied_during;
  check_bool "majority kept committing" true o.E.majority_committed_during;
  check_bool "minority transaction resumed after heal" true o.E.resumed;
  check_bool "healing convergence certified" true o.E.verdict.Convergence.converged;
  check_bool "overall verdict" true o.E.ok

(* Regression: an [Accept] whose replies straddle a loss window and a
   partition must not strand its slot forever (the leader retransmits
   in-flight accepts). This is the shrunk storm that used to wedge the
   end-to-end configuration: every later slot was chosen above the hole
   and nothing could deliver past it. *)
let test_stuck_accept_repaired () =
  let cfg =
    E.default_config ~predicate:E.Any_loss ~nemesis:true (System.Dsm Dsm_replica.Two_safe_mode)
  in
  let schedule =
    S.make ~servers:3 ~txs:2 ~spacing:(ms 5.)
      [ window 0.384 (us 593) (us 6_801); partition_ev [ [ 1 ] ] (us 14_356) ]
  in
  let o = E.run cfg schedule in
  check_bool "storm survived" false o.E.failed;
  match o.E.converge with
  | Some v ->
    check_bool "probe committed" true v.Convergence.probe_committed;
    check_int "no divergence" 0 v.Convergence.divergent_items
  | None -> Alcotest.fail "nemesis run should carry a convergence verdict"

(* Regression: a coordinator asked for a decision it has made but not yet
   forced to disk must stay silent, not answer "commit" with an empty
   write set — the shrunk storm that used to leave the recovered
   participant committed without the transaction's writes. *)
let test_twopc_decision_req_answers_from_durable_wal () =
  let cfg = E.default_config ~predicate:E.Any_loss ~nemesis:true System.Two_pc in
  let schedule =
    S.make ~servers:3 ~txs:2 ~spacing:(ms 5.)
      [ crash 2 (us 27_758); recover 2 (us 42_711) ]
  in
  let o = E.run cfg schedule in
  check_bool "storm survived" false o.E.failed;
  match o.E.converge with
  | Some v -> check_int "writes present everywhere" 0 v.Convergence.divergent_items
  | None -> Alcotest.fail "nemesis run should carry a convergence verdict"

(* ---- Fairness: the validator, the repairer and the wire format ---- *)

let delay_ev i span at = { S.at; kind = S.Delay (i, span) }

let fairness events =
  S.fairness_violation ~horizon:(ms 60.) (S.make ~servers:3 ~txs:1 ~spacing:(ms 5.) events)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec loop i = i + nl <= hl && (String.sub hay i nl = needle || loop (i + 1)) in
  loop 0

let test_fairness_validator () =
  check_bool "empty schedule is fair" true (fairness [] = None);
  check_bool "crash followed by recover is fair" true
    (fairness [ crash 0 (ms 2.); recover 0 (ms 10.) ] = None);
  (match fairness [ crash 1 (ms 2.) ] with
  | Some reason -> check_bool "reason names the unrecovered server" true (contains reason "S1")
  | None -> Alcotest.fail "a crash that never recovers must be unfair");
  check_bool "partition without heal is unfair" true
    (fairness [ partition_ev [ [ 1 ] ] (ms 2.) ] <> None);
  check_bool "partition then heal is fair" true
    (fairness [ partition_ev [ [ 1 ] ] (ms 2.); heal_ev (ms 9.) ] = None);
  check_bool "drop window open past the horizon is unfair" true
    (fairness [ window 0.5 (ms 50.) (ms 70.) ] <> None);
  check_bool "drop window closed inside the horizon is fair" true
    (fairness [ window 0.5 (ms 2.) (ms 9.) ] = None);
  check_bool "event past the horizon is unfair" true
    (fairness [ crash 0 (ms 61.); recover 0 (ms 62.) ] <> None);
  check_bool "delivery delay beyond the horizon is unfair" true
    (fairness [ delay_ev 1 (ms 80.) (ms 2.) ] <> None)

let test_repair_fair () =
  let unfair =
    S.make ~servers:3 ~txs:2 ~spacing:(ms 5.)
      [
        crash 0 (ms 2.);
        crash 1 (ms 70.);
        partition_ev [ [ 2 ] ] (ms 10.);
        window 0.5 (ms 40.) (ms 90.);
      ]
  in
  check_bool "input is unfair" false (S.fair ~horizon:(ms 60.) unfair);
  let repaired = E.repair_fair ~horizon:(ms 60.) unfair in
  check_bool "repaired schedule is fair" true (S.fair ~horizon:(ms 60.) repaired);
  check_bool "the surviving crash is still there" true
    (List.exists (fun e -> e.S.kind = S.Crash 0) repaired.S.events)

let test_serialize_parse_roundtrip () =
  let s =
    S.make ~servers:3 ~txs:2 ~spacing:(ms 5.)
      [
        crash 0 (ms 2.);
        recover 0 (ms 10.);
        delay_ev 1 (ms 3.) (ms 4.);
        partition_ev [ [ 1 ]; [ 0; 2 ] ] (ms 6.);
        heal_ev (ms 12.);
        window 0.384418 (ms 1.) (ms 9.);
        dup 2 (ms 8.);
      ]
  in
  (match S.parse (S.serialize s) with
  | Ok s' -> check_bool "round-trips through the wire format" true (S.equal s s')
  | Error e -> Alcotest.fail ("parse failed: " ^ e));
  (match S.parse "# comment only\nservers 2\ntxs 1\nspacing_us 5000\n" with
  | Ok s' ->
    check_int "comments skipped, empty event list" 0 (S.event_count s');
    check_int "header fields parsed" 2 s'.S.servers
  | Error e -> Alcotest.fail ("parse failed: " ^ e));
  check_bool "garbage is rejected" true
    (match S.parse "servers two\n" with Error _ -> true | Ok _ -> false)

(* Duplicated deliveries are absorbed by testable transactions: each
   server decides each transaction exactly once however often the network
   re-delivers. *)
let test_duplicate_delivery_deduplicated () =
  let cfg =
    E.default_config ~predicate:E.Any_loss ~nemesis:true (System.Dsm Dsm_replica.Two_safe_mode)
  in
  let schedule =
    S.make ~servers:3 ~txs:1 ~spacing:(ms 5.)
      [ dup 0 (ms 0.); dup 1 (ms 0.); dup 2 (ms 0.) ]
  in
  let o = E.run ~trace:true cfg schedule in
  check_bool "storm survived" false o.E.failed;
  let count_occurrences needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec loop i n =
      if i + nl > hl then n
      else if String.sub hay i nl = needle then loop (i + 1) (n + 1)
      else loop (i + 1) n
    in
    loop 0 0
  in
  check_int "each server decides the duplicated tx once" 3
    (count_occurrences "decide tx=0" o.E.trace)

let () =
  Alcotest.run "check"
    [
      ( "schedule",
        [
          Alcotest.test_case "canonical order" `Quick test_schedule_canonical_order;
          Alcotest.test_case "shrink candidates" `Quick test_shrink_candidates;
          Alcotest.test_case "exhaustive ordering" `Quick test_exhaustive_canonical_first;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "fig5 rediscovered and shrunk" `Quick test_fig5_rediscovered_and_shrunk;
          Alcotest.test_case "e2e broadcast certified loss-free" `Slow test_certify_e2e;
          Alcotest.test_case "eager 2PC certified loss-free" `Slow test_certify_twopc;
          Alcotest.test_case "deterministic per seed" `Quick test_explore_deterministic;
        ] );
      ( "violations",
        [
          Alcotest.test_case "fixed crash-pattern classes" `Quick test_no_violation_fixed_classes;
          Alcotest.test_case "random sweep per technique" `Slow test_no_violation_random_sweep;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "amnesiac replica is caught" `Quick test_amnesiac_oracle;
          Alcotest.test_case "read-only commit is never lost" `Quick
            test_read_only_commit_not_lost;
        ] );
      ( "nemesis",
        [
          Alcotest.test_case "shrinks fault pairs and windows" `Quick
            test_nemesis_shrink_candidates;
          Alcotest.test_case "universe gated by config" `Quick test_nemesis_universe_gated;
          Alcotest.test_case "e2e broadcast survives 500 storms" `Slow test_nemesis_certify_e2e;
          Alcotest.test_case "eager 2PC survives 500 storms" `Slow test_nemesis_certify_twopc;
          Alcotest.test_case "deterministic per seed" `Quick test_nemesis_explore_deterministic;
          Alcotest.test_case "batched and ring engines loss-free" `Quick
            test_nemesis_tuned_engines;
          Alcotest.test_case "minority partition stalls then converges" `Quick
            test_minority_stall_verdict;
          Alcotest.test_case "stuck accept repaired" `Quick test_stuck_accept_repaired;
          Alcotest.test_case "2PC decision req answers from durable WAL" `Quick
            test_twopc_decision_req_answers_from_durable_wal;
          Alcotest.test_case "duplicate delivery deduplicated" `Quick
            test_duplicate_delivery_deduplicated;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "validator" `Quick test_fairness_validator;
          Alcotest.test_case "repair makes any schedule fair" `Quick test_repair_fair;
          Alcotest.test_case "serialize/parse round-trip" `Quick test_serialize_parse_roundtrip;
        ] );
    ]
