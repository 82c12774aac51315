(* Integration tests for the replication techniques: the safety lattice,
   replica convergence, and the paper's failure scenarios (Fig. 5 / Fig. 7,
   Tables 2 and 3) at the full-system level. *)

open Groupsafe

let ms = Sim.Sim_time.span_ms
let sec x = Sim.Sim_time.span_s x
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Safety lattice ---- *)

let test_safety_table1 () =
  let open Safety in
  Alcotest.(check (option string))
    "0-safe cell" (Some "0-safe")
    (Option.map to_string (classify ~delivered:Delivered_one ~logged:Logged_none));
  Alcotest.(check (option string))
    "1-safe cell" (Some "1-safe")
    (Option.map to_string (classify ~delivered:Delivered_one ~logged:Logged_one));
  Alcotest.(check (option string))
    "group-safe cell" (Some "group-safe")
    (Option.map to_string (classify ~delivered:Delivered_all ~logged:Logged_none));
  Alcotest.(check (option string))
    "group-1-safe cell" (Some "group-1-safe")
    (Option.map to_string (classify ~delivered:Delivered_all ~logged:Logged_one));
  Alcotest.(check (option string))
    "2-safe cell" (Some "2-safe")
    (Option.map to_string (classify ~delivered:Delivered_all ~logged:Logged_all));
  Alcotest.(check (option string))
    "impossible cell" None
    (Option.map to_string (classify ~delivered:Delivered_one ~logged:Logged_all))

let test_safety_table2 () =
  let open Safety in
  let tol l = crash_tolerance l in
  check_bool "0-safe none" true (tol Zero_safe = Tolerates_none);
  check_bool "1-safe none" true (tol One_safe = Tolerates_none);
  check_bool "group-safe minority" true (tol Group_safe = Tolerates_minority);
  check_bool "group-1-safe minority" true (tol Group_one_safe = Tolerates_minority);
  check_bool "2-safe all" true (tol Two_safe = Tolerates_all);
  check_bool "very-safe all" true (tol Very_safe = Tolerates_all)

let test_safety_table3 () =
  let open Safety in
  (* Group-safe loses exactly when the group fails. *)
  check_bool "gs: no failure" false (lost_if Group_safe ~group_failed:false ~delegate_crashed:true);
  check_bool "gs: group fails" true (lost_if Group_safe ~group_failed:true ~delegate_crashed:false);
  (* Group-1-safe needs both. *)
  check_bool "g1s: group fails, Sd alive" false
    (lost_if Group_one_safe ~group_failed:true ~delegate_crashed:false);
  check_bool "g1s: group fails, Sd crashed" true
    (lost_if Group_one_safe ~group_failed:true ~delegate_crashed:true);
  (* 1-safe loses on a lone delegate crash; 2-safe never. *)
  check_bool "1s: delegate crash" true
    (lost_if One_safe ~group_failed:false ~delegate_crashed:true);
  check_bool "2s: never" false (lost_if Two_safe ~group_failed:true ~delegate_crashed:true)

let test_safety_strings () =
  List.iter
    (fun l ->
      Alcotest.(check (option string))
        "roundtrip" (Some (Safety.to_string l))
        (Option.map Safety.to_string (Safety.of_string (Safety.to_string l))))
    Safety.all

(* ---- System fixtures ---- *)

let small_params =
  {
    Workload.Params.table4 with
    Workload.Params.servers = 3;
    items = 200;
    hot_fraction = 0.;
    hot_items = 0;
  }

let make ?(params = small_params) ?seed technique =
  System.create ?seed ~params ~trace_enabled:true technique

let tx ~id ops = Db.Transaction.make ~id ~client:0 ops

(* Disjoint read and write items per transaction, so every technique —
   including unordered lazy propagation — must converge to the same
   values. *)
let update_tx ~id =
  tx ~id
    [ Db.Op.Read (10 + id); Db.Op.Write (20 + (2 * id), id + 1); Db.Op.Write (21 + (2 * id), id + 1) ]

(* Submit an update and capture the outcome. *)
let submit_one sys ~delegate ~id =
  let outcome = ref None in
  System.submit sys ~delegate ~on_response:(fun o -> outcome := Some o) (update_tx ~id);
  outcome

let committed_everywhere sys id =
  List.for_all
    (fun s -> System.committed_on sys ~server:s id)
    (List.init (System.n_servers sys) Fun.id)

let values_converged sys =
  let n = System.n_servers sys in
  let reference = System.values_of sys ~server:0 in
  List.for_all
    (fun s -> System.values_of sys ~server:s = reference)
    (List.init n Fun.id)

(* ---- Failure-free convergence, all techniques ---- *)

let test_technique_commits_and_converges technique () =
  let sys = make technique in
  let outcomes = List.init 5 (fun i -> submit_one sys ~delegate:(i mod 3) ~id:i) in
  System.run_for sys (sec 5.);
  List.iteri
    (fun i o ->
      match !o with
      | Some Db.Testable_tx.Committed -> check_bool "committed everywhere" true (committed_everywhere sys i)
      | Some Db.Testable_tx.Aborted -> Alcotest.failf "tx %d aborted unexpectedly" i
      | None -> Alcotest.failf "tx %d got no response" i)
    outcomes;
  check_bool "replicas converged" true (values_converged sys);
  let report = Safety_checker.analyse sys in
  check_int "no losses" 0 (List.length report.Safety_checker.lost);
  check_int "no divergence" 0 report.Safety_checker.divergent_items

let test_read_only_needs_no_broadcast () =
  let sys = make (System.Dsm Dsm_replica.Group_safe_mode) in
  let outcome = ref None in
  System.submit sys ~delegate:1
    ~on_response:(fun o -> outcome := Some o)
    (tx ~id:0 [ Db.Op.Read 1; Db.Op.Read 2 ]);
  System.run_for sys (sec 1.);
  check_bool "read-only committed" true (!outcome = Some Db.Testable_tx.Committed)

(* The book holds one ack per id, each carrying the instant of the
   submission it answers; a retry of an answered id adds no ack, though
   [submitted] counts it. *)
let test_acks_carry_submit_instant () =
  let sys = make (System.Dsm Dsm_replica.Group_safe_mode) in
  let engine = System.engine sys in
  let submitted = Array.make 4 Sim.Sim_time.zero in
  for id = 0 to 3 do
    Sim.Engine.schedule engine ~delay:(ms (7. *. float_of_int (id + 1))) (fun () ->
        submitted.(id) <- System.now sys;
        System.submit sys ~delegate:(id mod 3) (update_tx ~id))
  done;
  System.run_for sys (sec 2.);
  System.submit sys ~delegate:1 (update_tx ~id:0);
  System.run_for sys (sec 1.);
  let acks = System.acked sys in
  check_int "one ack per id" 4 (List.length acks);
  check_int "every submission counted" 5 (System.submitted sys);
  List.iter
    (fun a ->
      let id = a.System.tx in
      check_bool "ack carries the submit instant" true
        (Sim.Sim_time.equal a.System.submitted_at submitted.(id));
      check_bool "answered after it" true Sim.Sim_time.(a.System.at > submitted.(id));
      check_bool "the first submission is booked" true
        (match System.submission_of sys id with
         | Some sub -> Sim.Sim_time.equal sub.System.sub_at submitted.(id)
         | None -> false);
      check_bool "answered id" true (System.acked_id sys id))
    acks

(* ---- Certification conflicts abort identically everywhere ---- *)

let test_conflicting_updates_abort_consistently () =
  let sys = make (System.Dsm Dsm_replica.Group_safe_mode) in
  (* Two transactions read-write the same item from different delegates at
     the same instant: certification must abort exactly one of them, and
     every replica must agree. *)
  let mk id = tx ~id [ Db.Op.Read 7; Db.Op.Write (7, id) ] in
  let o1 = ref None and o2 = ref None in
  System.submit sys ~delegate:1 ~on_response:(fun o -> o1 := Some o) (mk 1);
  System.submit sys ~delegate:2 ~on_response:(fun o -> o2 := Some o) (mk 2);
  System.run_for sys (sec 5.);
  let committed o = o = Some Db.Testable_tx.Committed in
  check_bool "exactly one commits" true (committed !o1 <> committed !o2);
  check_bool "replicas agree on values" true (values_converged sys)

(* ---- Fig. 5 at system level: group-safe loses on group failure ---- *)

(* Submit, crash every server the moment the client is acknowledged, then
   recover [recover_servers] and run on. Returns (outcome, sys). *)
let crash_all_at_ack technique ~recover_servers =
  let sys = make technique in
  let outcome = ref None in
  System.submit sys ~delegate:0
    ~on_response:(fun o ->
      outcome := Some o;
      for i = 0 to System.n_servers sys - 1 do
        System.crash sys i
      done)
    (update_tx ~id:0);
  System.run_for sys (sec 2.);
  List.iter (fun i -> System.recover sys i) recover_servers;
  System.run_for sys (sec 5.);
  (!outcome, sys)

let test_fig5_group_safe_loses_transaction () =
  let outcome, sys =
    crash_all_at_ack (System.Dsm Dsm_replica.Group_safe_mode) ~recover_servers:[ 0; 1; 2 ]
  in
  check_bool "client was told committed" true (outcome = Some Db.Testable_tx.Committed);
  let report = Safety_checker.analyse sys in
  check_bool "group failed" true report.Safety_checker.group_failed;
  check_int "transaction lost" 1 (List.length report.Safety_checker.lost);
  (* The loss is within the advertised guarantee: group-safety only holds
     while the group survives (Table 2). *)
  check_bool "loss allowed by level" true
    (Safety_checker.losses_allowed report ~delegate_crashed:(fun _ -> true))

let test_fig7_two_safe_survives_group_failure () =
  let outcome, sys =
    crash_all_at_ack (System.Dsm Dsm_replica.Two_safe_mode) ~recover_servers:[ 0; 1; 2 ]
  in
  check_bool "client was told committed" true (outcome = Some Db.Testable_tx.Committed);
  let report = Safety_checker.analyse sys in
  check_bool "group failed" true report.Safety_checker.group_failed;
  check_int "nothing lost" 0 (List.length report.Safety_checker.lost);
  check_bool "still committed everywhere" true (committed_everywhere sys 0)

let test_group_one_safe_loses_when_delegate_stays_down () =
  (* Table 3, right column: the group fails and the delegate crashes. At
     the acknowledgement only the delegate's log is guaranteed; here the
     other servers crash while their own (asynchronous) flushes are still
     in flight, the delegate answers from its log and dies, and the
     survivors reform the group without the transaction. *)
  let sys = make (System.Dsm Dsm_replica.Group_one_safe_mode) in
  let outcome = ref None in
  (* Write-only transaction: the read phase is empty, so delivery happens
     within ~1 ms and the remote flushes are still in flight at +2 ms. *)
  System.submit sys ~delegate:0
    ~on_response:(fun o ->
      outcome := Some o;
      System.crash sys 0)
    (tx ~id:0 [ Db.Op.Write (20, 1); Db.Op.Write (21, 1) ]);
  let after delay f = Sim.Engine.schedule (System.engine sys) ~delay f in
  after (ms 2.) (fun () -> System.crash sys 1);
  after (ms 2.) (fun () -> System.crash sys 2);
  System.run_for sys (sec 2.);
  check_bool "client was told committed" true (!outcome = Some Db.Testable_tx.Committed);
  after (ms 1.) (fun () -> System.recover sys 1);
  after (ms 1.) (fun () -> System.recover sys 2);
  System.run_for sys (sec 5.);
  let report = Safety_checker.analyse sys in
  check_bool "group failed" true report.Safety_checker.group_failed;
  check_int "transaction lost" 1 (List.length report.Safety_checker.lost);
  check_bool "allowed: group failed and delegate crashed" true
    (Safety_checker.losses_allowed report ~delegate_crashed:(fun _ -> true))

let test_group_one_safe_survives_when_group_survives () =
  (* Table 3, left column: a minority crash is harmless. *)
  let sys = make (System.Dsm Dsm_replica.Group_one_safe_mode) in
  let outcome = ref None in
  System.submit sys ~delegate:0
    ~on_response:(fun o ->
      outcome := Some o;
      System.crash sys 2)
    (update_tx ~id:0);
  System.run_for sys (sec 3.);
  check_bool "committed" true (!outcome = Some Db.Testable_tx.Committed);
  let report = Safety_checker.analyse sys in
  check_bool "group survived" false report.Safety_checker.group_failed;
  check_int "nothing lost" 0 (List.length report.Safety_checker.lost)

let test_lazy_one_safe_loses_on_delegate_crash () =
  (* Table 2, first row: 1-safe cannot tolerate even one crash. Crash the
     delegate at the acknowledgement, before lazy propagation reaches
     anyone; it never comes back. *)
  let sys = make (System.Lazy Lazy_replica.One_safe_mode) in
  let outcome = ref None in
  System.submit sys ~delegate:0
    ~on_response:(fun o ->
      outcome := Some o;
      System.crash sys 0)
    (update_tx ~id:0);
  System.run_for sys (sec 3.);
  check_bool "client was told committed" true (!outcome = Some Db.Testable_tx.Committed);
  let report = Safety_checker.analyse sys in
  check_int "transaction lost" 1 (List.length report.Safety_checker.lost);
  check_bool "allowed for 1-safe" true
    (Safety_checker.losses_allowed report ~delegate_crashed:(fun _ -> true))

let test_group_safe_survives_minority_crash () =
  (* Table 2, second row: group-safe tolerates any minority of crashes even
     though nothing was logged anywhere at the acknowledgement. *)
  let sys = make (System.Dsm Dsm_replica.Group_safe_mode) in
  let outcome = ref None in
  System.submit sys ~delegate:0
    ~on_response:(fun o ->
      outcome := Some o;
      System.crash sys 0)
    (update_tx ~id:0);
  System.run_for sys (sec 3.);
  check_bool "committed" true (!outcome = Some Db.Testable_tx.Committed);
  let report = Safety_checker.analyse sys in
  check_int "survives on the group" 0 (List.length report.Safety_checker.lost)

(* ---- Recovery: state transfer brings a replica back in sync ---- *)

let test_recovered_replica_catches_up () =
  let sys = make (System.Dsm Dsm_replica.Group_safe_mode) in
  let o1 = submit_one sys ~delegate:0 ~id:0 in
  System.run_for sys (sec 2.);
  System.crash sys 2;
  let o2 = submit_one sys ~delegate:1 ~id:1 in
  System.run_for sys (sec 2.);
  System.recover sys 2;
  System.run_for sys (sec 3.);
  check_bool "both committed" true
    (!o1 = Some Db.Testable_tx.Committed && !o2 = Some Db.Testable_tx.Committed);
  check_bool "rejoined replica has both" true
    (System.committed_on sys ~server:2 0 && System.committed_on sys ~server:2 1);
  check_bool "values converged" true (values_converged sys)

let test_lazy_divergence_without_failures () =
  (* §7: lazy update-everywhere can violate consistency with no crash at
     all — two delegates commit conflicting writes concurrently. *)
  let sys = make (System.Lazy Lazy_replica.One_safe_mode) in
  let mk id = tx ~id [ Db.Op.Write (5, 100 + id) ] in
  System.submit sys ~delegate:0 (mk 1);
  System.submit sys ~delegate:1 (mk 2);
  System.run_for sys (sec 3.);
  (* Both committed locally in different orders; last-writer-wins by
     arrival may differ per server. We only assert the checker notices when
     values differ, and that no "loss" is reported. *)
  let report = Safety_checker.analyse sys in
  check_int "no loss" 0 (List.length report.Safety_checker.lost);
  check_bool "divergence is measured (>= 0)" true (report.Safety_checker.divergent_items >= 0)

let test_process_classes_in_report () =
  let sys = make (System.Dsm Dsm_replica.Group_safe_mode) in
  System.run_for sys (sec 1.);
  System.crash sys 1;
  System.run_for sys (sec 1.);
  System.recover sys 1;
  System.run_for sys (sec 1.);
  System.crash sys 2;
  System.run_for sys (sec 1.);
  let report = Safety_checker.analyse sys in
  let class_of s = List.assoc s report.Safety_checker.classes in
  check_bool "never crashed is green" true (class_of "S0" = Gcs.Process_class.Green);
  check_bool "crashed and recovered is yellow" true (class_of "S1" = Gcs.Process_class.Yellow);
  check_bool "down at horizon is red" true (class_of "S2" = Gcs.Process_class.Red)

(* ---- Workload plumbing ---- *)

let test_generator_respects_params () =
  let rng = Sim.Rng.create 42L in
  let g = Workload.Generator.create Workload.Params.table4 rng in
  for _ = 1 to 200 do
    let tx = Workload.Generator.next g ~client:3 in
    let n = Db.Transaction.op_count tx in
    check_bool "length in range" true (n >= 10 && n <= 20);
    List.iter
      (fun op ->
        let item = Db.Op.item op in
        check_bool "item in range" true (item >= 0 && item < 10_000))
      tx.Db.Transaction.ops
  done;
  check_int "ids dense" 200 (Workload.Generator.generated g)

let test_open_poisson_rate () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let count = ref 0 in
  let a = Workload.Arrival.open_poisson engine ~rng ~rate_tps:100. (fun () -> incr count) in
  Sim.Engine.run ~until:(Sim.Sim_time.of_us 10_000_000) engine;
  Workload.Arrival.stop a;
  (* 100 tps over 10 s: expect about 1000 arrivals. *)
  check_bool "rate approximately right" true (!count > 850 && !count < 1150)

let test_closed_loop_blocks_on_response () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let in_flight = ref 0 and max_in_flight = ref 0 in
  let _ =
    Workload.Arrival.closed_loop engine ~rng ~clients:2 ~think_time:(ms 10.)
      (fun ~done_ ->
        incr in_flight;
        if !in_flight > !max_in_flight then max_in_flight := !in_flight;
        Sim.Engine.schedule engine ~delay:(ms 5.) (fun () ->
            decr in_flight;
            done_ ()))
  in
  Sim.Engine.run ~until:(Sim.Sim_time.of_us 1_000_000) engine;
  check_bool "never more than clients in flight" true (!max_in_flight <= 2);
  check_bool "progress" true (!max_in_flight >= 1)

let test_table4_rows_match_paper () =
  let rows = Workload.Params.rows Workload.Params.table4 in
  let v k = List.assoc k rows in
  Alcotest.(check string) "items" "10000" (v "Number of items in the database");
  Alcotest.(check string) "servers" "9" (v "Number of Servers");
  Alcotest.(check string) "clients" "4" (v "Number of Clients per Server");
  Alcotest.(check string) "io" "4 - 12 ms" (v "Time for a read");
  Alcotest.(check string) "net" "0.07 ms" (v "Time for a message or a broadcast on the Network")

let dsm_case name mode = Alcotest.test_case name `Quick (test_technique_commits_and_converges mode)

let () =
  Alcotest.run "groupsafe"
    [
      ( "safety_lattice",
        [
          Alcotest.test_case "table 1 cells" `Quick test_safety_table1;
          Alcotest.test_case "table 2 tolerance" `Quick test_safety_table2;
          Alcotest.test_case "table 3 loss conditions" `Quick test_safety_table3;
          Alcotest.test_case "string roundtrip" `Quick test_safety_strings;
        ] );
      ( "convergence",
        [
          dsm_case "group-safe commits and converges" (System.Dsm Dsm_replica.Group_safe_mode);
          dsm_case "group-1-safe commits and converges"
            (System.Dsm Dsm_replica.Group_one_safe_mode);
          dsm_case "2-safe commits and converges" (System.Dsm Dsm_replica.Two_safe_mode);
          dsm_case "lazy 1-safe commits and converges" (System.Lazy Lazy_replica.One_safe_mode);
          dsm_case "lazy 0-safe commits and converges" (System.Lazy Lazy_replica.Zero_safe_mode);
          Alcotest.test_case "read-only skips broadcast" `Quick test_read_only_needs_no_broadcast;
          Alcotest.test_case "acks carry the submit instant" `Quick test_acks_carry_submit_instant;
          Alcotest.test_case "conflicts abort consistently" `Quick
            test_conflicting_updates_abort_consistently;
        ] );
      ( "failure_scenarios",
        [
          Alcotest.test_case "fig5: group-safe loses on group failure" `Quick
            test_fig5_group_safe_loses_transaction;
          Alcotest.test_case "fig7: 2-safe survives group failure" `Quick
            test_fig7_two_safe_survives_group_failure;
          Alcotest.test_case "table3: group-1-safe loses iff delegate also gone" `Quick
            test_group_one_safe_loses_when_delegate_stays_down;
          Alcotest.test_case "table3: group-1-safe survives minority" `Quick
            test_group_one_safe_survives_when_group_survives;
          Alcotest.test_case "table2: 1-safe loses on one crash" `Quick
            test_lazy_one_safe_loses_on_delegate_crash;
          Alcotest.test_case "table2: group-safe tolerates minority" `Quick
            test_group_safe_survives_minority_crash;
          Alcotest.test_case "state transfer catches up" `Quick test_recovered_replica_catches_up;
          Alcotest.test_case "lazy diverges without failures" `Quick
            test_lazy_divergence_without_failures;
          Alcotest.test_case "process classes reported" `Quick test_process_classes_in_report;
        ] );
      ( "workload",
        [
          Alcotest.test_case "generator respects params" `Quick test_generator_respects_params;
          Alcotest.test_case "poisson rate" `Quick test_open_poisson_rate;
          Alcotest.test_case "closed loop" `Quick test_closed_loop_blocks_on_response;
          Alcotest.test_case "table 4 rows" `Quick test_table4_rows_match_paper;
        ] );
    ]
