(* The liveness replay corpus and the liveness oracle's own tests.

   test/liveness_corpus/ holds the shrunk counterexample schedules of the
   earlier PRs in Check.Schedule.serialize form, with replay directives on
   `# key=value` comment lines. The runner re-certifies each schedule
   against the current tree: the historical safety counterexamples must
   still reproduce, the liveness entries must certify clean as fixed and
   fail again when their bug is re-broken through the oracle-mutation
   hooks. The remaining sections exercise the explorer's liveness mode
   end to end: mutation rediscovery with fairness-preserving shrinking,
   fairness-rejection reporting, determinism and the leader-takeover
   scenario family. *)

open Groupsafe
module E = Check.Explorer
module S = Check.Schedule

let check_bool = Alcotest.(check bool)
let corpus_dir = "liveness_corpus"
let read_file path = In_channel.with_open_text path In_channel.input_all

let technique_of file name =
  match List.find_opt (fun t -> System.technique_name t = name) System.all_techniques with
  | Some t -> t
  | None -> Alcotest.fail (file ^ ": unknown technique directive " ^ name)

let break_all f sys =
  for i = 0 to System.n_servers sys - 1 do
    f sys i
  done

let mutation_of file = function
  | "no-accept-retransmit" -> break_all System.break_no_accept_retransmit
  | "early-decision" -> break_all System.break_early_decision
  | other -> Alcotest.fail (file ^ ": unknown mutate directive " ^ other)

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sched")
  |> List.sort compare

let replay_text file text =
  let dirs = S.directives text in
  let find key = List.assoc_opt key dirs in
  let technique =
    match find "technique" with
    | Some t -> technique_of file t
    | None -> Alcotest.fail (file ^ ": missing technique directive")
  in
  let schedule =
    match S.parse text with Ok s -> s | Error e -> Alcotest.fail (file ^ ": " ^ e)
  in
  match (find "predicate", find "expect") with
  | Some "any-loss", Some "fail" ->
    (* A historical safety counterexample: the schedule must still witness
       the loss it was shrunk to (the loss is inherent to the technique,
       not a fixed bug). *)
    let cfg = E.default_config ~predicate:E.Any_loss technique in
    check_bool (file ^ ": loss still reproduces") true (E.run cfg schedule).E.failed
  | _ -> (
    (* A liveness corpus entry: the schedule must be fair, the fixed tree
       must certify clean under all three oracles, and re-breaking the bug
       through its mutation hook must make the same schedule fail again. *)
    let cfg = E.default_config ~liveness:true technique in
    check_bool (file ^ ": schedule is fair") true (S.fair ~horizon:cfg.E.horizon schedule);
    let clean = E.run cfg schedule in
    check_bool (file ^ ": fixed tree passes safety, convergence and liveness") false
      clean.E.failed;
    (match clean.E.liveness with
    | Some v -> check_bool (file ^ ": certified live") true v.Check.Liveness.live
    | None -> Alcotest.fail (file ^ ": liveness verdict missing"));
    match find "mutate" with
    | None -> ()
    | Some m ->
      let broken = E.run { cfg with E.mutate = mutation_of file m } schedule in
      check_bool (file ^ ": re-broken tree fails again") true broken.E.failed)

let test_corpus () =
  let files = corpus_files () in
  check_bool "corpus holds at least three schedules" true (List.length files >= 3);
  List.iter (fun file -> replay_text file (read_file (Filename.concat corpus_dir file))) files

(* A failing run's artifact is a corpus entry: written exactly as the
   liveness acceptance run writes one, from the no-accept-retransmit
   rediscovery, it must parse back to the shrunk schedule and replay
   through the corpus reader — clean on the fixed tree, failing again once
   the mutation is named. *)
let test_artifact_is_corpus_entry () =
  let cfg =
    E.default_config ~liveness:true
      ~mutate:(break_all System.break_no_accept_retransmit)
      (System.Dsm Dsm_replica.Two_safe_mode)
  in
  let r = E.explore ~seed:42L ~budget:20 ~max_random_events:3 cfg in
  let c =
    match r.E.counterexample with
    | Some c -> c
    | None -> Alcotest.fail "mutation not rediscovered within 20 fair storms"
  in
  let path = Filename.temp_file "liveness-counterexample" ".txt" in
  Harness.Experiment.write_counterexample ~path ~what:"artifact" r;
  let text = read_file path in
  Sys.remove path;
  (match S.parse text with
  | Ok s -> check_bool "parses to the shrunk schedule" true (S.equal s c.E.shrunk)
  | Error e -> Alcotest.fail ("artifact does not parse: " ^ e));
  Alcotest.(check (option string))
    "technique directive" (Some "2-safe")
    (List.assoc_opt "technique" (S.directives text));
  replay_text "artifact" (text ^ "# mutate=no-accept-retransmit\n")

(* ---- Mutation rediscovery with fairness-preserving shrinking ---- *)

let rediscover technique mutate =
  let cfg = E.default_config ~liveness:true ~mutate technique in
  let r = E.explore ~seed:42L ~budget:100 ~max_random_events:3 cfg in
  match r.E.counterexample with
  | None -> Alcotest.fail "mutation not rediscovered within 100 fair storms"
  | Some c ->
    check_bool "found in the random-storm phase (no exhaustive pass)" true
      (c.E.found_in = E.Random_storm);
    check_bool "original schedule already fair" true (S.fair ~horizon:cfg.E.horizon c.E.original);
    check_bool "shrunk schedule still fair" true (S.fair ~horizon:cfg.E.horizon c.E.shrunk);
    check_bool "shrinking never grows" true
      (S.event_count c.E.shrunk <= S.event_count c.E.original);
    check_bool "shrunk schedule still fails on replay" true (E.run cfg c.E.shrunk).E.failed

let test_rediscover_stuck_accept () =
  rediscover
    (System.Dsm Dsm_replica.Two_safe_mode)
    (break_all System.break_no_accept_retransmit)

let test_rediscover_early_decision () =
  rediscover System.Two_pc (break_all System.break_early_decision)

(* ---- Fairness-rejection reporting (no silent regeneration) ---- *)

let test_rejections_reported () =
  let cfg = E.default_config ~liveness:true (System.Dsm Dsm_replica.Two_safe_mode) in
  let r = E.explore ~seed:42L ~budget:40 ~max_random_events:3 cfg in
  check_bool "unfair candidates were drawn and tallied" true (r.E.rejections <> []);
  check_bool "every tallied reason counts at least one candidate" true
    (List.for_all (fun (_, n) -> n >= 1) r.E.rejections);
  check_bool "reasons are rendered into the report" true
    (List.for_all
       (fun (reason, _) ->
         let rendered = E.render_result r in
         let rl = String.length reason and hl = String.length rendered in
         let rec contains i =
           i + rl <= hl && (String.sub rendered i rl = reason || contains (i + 1))
         in
         contains 0)
       r.E.rejections);
  let plain =
    E.explore ~seed:42L ~budget:40 ~max_random_events:3
      (E.default_config ~nemesis:true (System.Dsm Dsm_replica.Two_safe_mode))
  in
  check_bool "no tally outside liveness mode" true (plain.E.rejections = [])

(* ---- Determinism ---- *)

let test_liveness_explore_deterministic () =
  let cfg = E.default_config ~liveness:true System.Two_pc in
  let r1 = E.explore ~seed:7L ~budget:50 ~max_random_events:3 cfg in
  let r2 = E.explore ~seed:7L ~budget:50 ~max_random_events:3 cfg in
  Alcotest.(check string)
    "rendered reports (verdict, storms, rejection tally) byte-identical"
    (E.render_result r1) (E.render_result r2)

(* ---- Bounded decision latency ---- *)

let test_decision_bound () =
  let sched cfg = S.make ~servers:3 ~txs:cfg.E.txs ~spacing:cfg.E.spacing [] in
  let technique = System.Dsm Dsm_replica.Group_safe_mode in
  let strict = E.default_config ~liveness:true ~max_decision_us:1 technique in
  let o = E.run strict (sched strict) in
  (match o.E.liveness with
  | None -> Alcotest.fail "liveness verdict missing"
  | Some v ->
    check_bool "bound recorded in the verdict" true (v.Check.Liveness.bound = Some 1);
    check_bool "every decision is late under a 1us bound" true (v.Check.Liveness.late <> []);
    check_bool "decided-but-late is reported distinctly from undecided" true
      (v.Check.Liveness.undecided = []);
    check_bool "late decisions fail certification" false v.Check.Liveness.live);
  check_bool "and the run" true o.E.failed;
  let generous = E.default_config ~liveness:true ~max_decision_us:60_000_000 technique in
  let o = E.run generous (sched generous) in
  match o.E.liveness with
  | Some v ->
    check_bool "a generous bound certifies live" true v.Check.Liveness.live;
    check_bool "no late decisions" true (v.Check.Liveness.late = [])
  | None -> Alcotest.fail "liveness verdict missing"

(* ---- First submission wins ---- *)

(* The reference the oracle must agree with: each ack matched to its
   transaction's first submission by a linear scan of the books. Returns
   the slowest decision and the (tx, delegate, us) triples over [bound]. *)
let first_match_scan sys ~bound =
  let subs = System.submissions sys in
  let worst, late =
    List.fold_left
      (fun (worst, late) ack ->
        match List.find_opt (fun s -> s.System.sub_tx = ack.System.tx) subs with
        | None -> (worst, late)
        | Some s ->
          let us = Sim.Sim_time.span_to_us (Sim.Sim_time.diff ack.System.at s.System.sub_at) in
          let late = if us > bound then (ack.System.tx, s.System.sub_delegate, us) :: late else late in
          (Int.max worst us, late))
      (0, []) (System.acked sys)
  in
  (worst, List.rev late)

(* A client retry (same id, another delegate) lands before the decision.
   Decisions are still timed from the first submission: under a bound just
   below that latency the transaction is late, though it would not be if
   timed from the retry. *)
let test_retry_timed_from_first_submission () =
  let sys = System.create ~trace_enabled:false (System.Dsm Dsm_replica.Group_safe_mode) in
  System.run_for sys (Sim.Sim_time.span_ms 100.);
  let tx id = Db.Transaction.make ~id ~client:0 [ Db.Op.Read id; Db.Op.Write (id, id) ] in
  let first_at = System.now sys in
  System.submit sys ~delegate:0 (tx 1);
  System.submit sys ~delegate:1 (tx 2);
  System.run_for sys (Sim.Sim_time.span_us 300);
  check_bool "retry precedes the decision" false (System.acked_id sys 1);
  System.submit sys ~delegate:1 (tx 1);
  System.run_for sys (Sim.Sim_time.span_s 2.);
  check_bool "both decided" true (System.acked_id sys 1 && System.acked_id sys 2);
  (match System.submission_of sys 1 with
  | Some s ->
    check_bool "first submission kept" true
      (s.System.sub_delegate = 0 && Sim.Sim_time.equal s.System.sub_at first_at)
  | None -> Alcotest.fail "submission_of lost tx 1");
  check_bool "unknown id" true (Option.is_none (System.submission_of sys 99));
  let decision_us =
    match List.find_opt (fun a -> a.System.tx = 1) (System.acked sys) with
    | Some a -> Sim.Sim_time.span_to_us (Sim.Sim_time.diff a.System.at first_at)
    | None -> Alcotest.fail "tx 1 not acked"
  in
  let bound = decision_us - 100 in
  let v = Check.Liveness.certify ~max_decision_us:bound sys in
  let worst, late = first_match_scan sys ~bound in
  Alcotest.(check int) "max_decision_us" worst v.Check.Liveness.max_decision_us;
  Alcotest.(check (list (triple int int int)))
    "late entries" late
    (List.map
       (fun l -> Check.Liveness.(l.l_tx, l.l_delegate, l.l_decision_us))
       v.Check.Liveness.late);
  check_bool "tx 1 late, timed from its first submission" true
    (List.mem (1, 0, decision_us) late)

(* ---- Leader takeover ---- *)

let takeover technique =
  let t = E.leader_takeover (E.default_config ~liveness:true technique) in
  check_bool "every round submitted a transaction" true (t.E.submitted_txs = t.E.kills);
  check_bool "every kill handed leadership over" true (t.E.takeovers = t.E.kills);
  check_bool "every transaction decided" true t.E.liveness.Check.Liveness.live;
  check_bool "group converged after the kills" true t.E.converge.Convergence.converged;
  check_bool "overall verdict" true t.E.ok

let test_takeover_group_safe () = takeover (System.Dsm Dsm_replica.Group_safe_mode)
let test_takeover_two_safe () = takeover (System.Dsm Dsm_replica.Two_safe_mode)

let test_liveness_tuned_engines () =
  (* Eventual decision must hold when the engine batches and pipelines (a
     leader kill can orphan a whole in-flight window) and when values
     circulate a ring (a kill cuts the ring mid-circulation until the
     membership view heals it). *)
  List.iter
    (fun tuning ->
      let cfg =
        E.default_config ~liveness:true ~tuning (System.Dsm Dsm_replica.Two_safe_mode)
      in
      let r = E.explore ~seed:42L ~budget:30 ~max_random_events:3 cfg in
      check_bool
        (Printf.sprintf "every fair storm decided on %s" (Gcs.Bcast_tuning.to_string tuning))
        true
        (Option.is_none r.E.counterexample);
      let t =
        E.leader_takeover
          (E.default_config ~liveness:true ~tuning (System.Dsm Dsm_replica.Group_safe_mode))
      in
      check_bool
        (Printf.sprintf "takeover verdict on %s" (Gcs.Bcast_tuning.to_string tuning))
        true t.E.ok)
    [ Gcs.Bcast_tuning.batched (); Gcs.Bcast_tuning.ring () ]

let () =
  Alcotest.run "liveness"
    [
      ( "corpus",
        [
          Alcotest.test_case "replay corpus re-certified" `Quick test_corpus;
          Alcotest.test_case "counterexample artifact replays as an entry" `Quick
            test_artifact_is_corpus_entry;
        ] );
      ( "rediscovery",
        [
          Alcotest.test_case "stuck accept rediscovered, fair shrink" `Slow
            test_rediscover_stuck_accept;
          Alcotest.test_case "2PC early decision rediscovered, fair shrink" `Slow
            test_rediscover_early_decision;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "fairness rejections tallied and rendered" `Quick
            test_rejections_reported;
          Alcotest.test_case "deterministic per seed" `Quick
            test_liveness_explore_deterministic;
          Alcotest.test_case "decision-latency bound" `Quick test_decision_bound;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "retry timed from first submission" `Quick
            test_retry_timed_from_first_submission;
        ] );
      ( "takeover",
        [
          Alcotest.test_case "group-safe hands over" `Quick test_takeover_group_safe;
          Alcotest.test_case "2-safe hands over" `Quick test_takeover_two_safe;
          Alcotest.test_case "batched and ring engines stay live" `Quick
            test_liveness_tuned_engines;
        ] );
    ]
