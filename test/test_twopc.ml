(* Tests for the eager 2PC baseline: convergence, serialised conflicts,
   the availability cost of unanimous votes, and the blocking problem with
   presumed-abort coordinator recovery. *)

open Groupsafe

let ms = Sim.Sim_time.span_ms
let sec x = Sim.Sim_time.span_s x
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_params =
  {
    Workload.Params.table4 with
    Workload.Params.servers = 3;
    items = 200;
    hot_fraction = 0.;
    hot_items = 0;
  }

let make () = System.create ~params:small_params System.Two_pc

let tx ~id ops = Db.Transaction.make ~id ~client:0 ops

let update_tx ~id =
  tx ~id [ Db.Op.Read (10 + id); Db.Op.Write (20 + (2 * id), id + 1); Db.Op.Write (21 + (2 * id), id + 1) ]

let test_commits_and_converges () =
  let sys = make () in
  let outcomes =
    List.init 4 (fun i ->
        let o = ref None in
        System.submit sys ~delegate:(i mod 3) ~on_response:(fun x -> o := Some x) (update_tx ~id:i);
        o)
  in
  System.run_for sys (sec 10.);
  List.iteri
    (fun i o ->
      check_bool (Printf.sprintf "tx %d committed" i) true (!o = Some Db.Testable_tx.Committed);
      check_bool "on every replica" true
        (List.for_all (fun s -> System.committed_on sys ~server:s i) [ 0; 1; 2 ]))
    outcomes;
  let v0 = System.values_of sys ~server:0 in
  for s = 1 to 2 do
    check_bool "values converged" true (System.values_of sys ~server:s = v0)
  done;
  (* The acknowledgement implies durable preparation everywhere: 2-safe. *)
  let report = Safety_checker.analyse sys in
  check_int "no loss" 0 (List.length report.Safety_checker.lost)

let test_conflicting_coordinators_serialise_or_abort () =
  let sys = make () in
  let mk id = tx ~id [ Db.Op.Read 7; Db.Op.Write (7, 100 + id) ] in
  let o1 = ref None and o2 = ref None in
  System.submit sys ~delegate:1 ~on_response:(fun o -> o1 := Some o) (mk 1);
  System.submit sys ~delegate:2 ~on_response:(fun o -> o2 := Some o) (mk 2);
  System.run_for sys (sec 10.);
  check_bool "both answered" true (!o1 <> None && !o2 <> None);
  (* Locking serialises them (both commit, one after the other) or the
     distributed deadlock is broken by a timeout abort; either way the
     replicas agree. *)
  let v0 = System.values_of sys ~server:0 in
  for s = 1 to 2 do
    check_bool "values converged" true (System.values_of sys ~server:s = v0)
  done

let test_survives_total_crash_after_ack () =
  (* 2-safe: the prepare records are on every disk before the client hears
     "committed". *)
  let sys = make () in
  let outcome = ref None in
  System.submit sys ~delegate:0
    ~on_response:(fun o ->
      outcome := Some o;
      for i = 0 to 2 do
        System.crash sys i
      done)
    (update_tx ~id:0);
  System.run_for sys (sec 5.);
  for i = 0 to 2 do
    System.recover sys i
  done;
  System.run_for sys (sec 8.);
  check_bool "acknowledged" true (!outcome = Some Db.Testable_tx.Committed);
  let report = Safety_checker.analyse sys in
  check_int "nothing lost" 0 (List.length report.Safety_checker.lost)

let test_participant_down_forces_abort () =
  (* Unanimous votes: one dead participant means no commit — the
     availability price of eager replication. *)
  let sys = make () in
  System.crash sys 2;
  System.run_for sys (sec 1.);
  let outcome = ref None in
  System.submit sys ~delegate:0 ~on_response:(fun o -> outcome := Some o) (update_tx ~id:0);
  System.run_for sys (sec 5.);
  check_bool "aborted by vote timeout" true (!outcome = Some Db.Testable_tx.Aborted);
  match System.twopc_replica sys 0 with
  | Some r -> check_bool "timeout counted" true (Twopc_replica.vote_timeouts r >= 1)
  | None -> Alcotest.fail "expected 2pc replica"

let test_blocking_and_presumed_abort () =
  (* Participants durably prepare but their votes are lost (partition);
     the coordinator crashes before deciding. The participants are in
     doubt — blocked — until the coordinator recovers and presumes
     abort. Fixed 6 ms I/O makes the schedule deterministic: the prepare
     leaves the coordinator at ~6.2 ms, the participants are durable at
     ~12.3 ms, so a partition at 8 ms lets the prepare through and drops
     the votes. *)
  let params =
    {
      small_params with
      Workload.Params.io_time_min = ms 6.;
      io_time_max = ms 6.;
    }
  in
  let sys = System.create ~params System.Two_pc in
  Sim.Engine.schedule (System.engine sys) ~delay:(ms 8.) (fun () ->
      System.partition sys [ [ 0 ]; [ 1; 2 ] ]);
  let outcome = ref None in
  System.submit sys ~delegate:0
    ~on_response:(fun o -> outcome := Some o)
    (tx ~id:0 [ Db.Op.Write (10, 1); Db.Op.Write (11, 1) ]);
  System.run_for sys (ms 500.);
  check_bool "client not yet answered" true (!outcome = None);
  System.crash sys 0;
  System.heal sys;
  System.run_for sys (sec 3.);
  check_bool "client never answered" true (!outcome = None);
  let in_doubt_somewhere =
    List.exists
      (fun s ->
        match System.twopc_replica sys s with
        | Some r -> Twopc_replica.in_doubt r > 0
        | None -> false)
      [ 1; 2 ]
  in
  check_bool "participants blocked in doubt" true in_doubt_somewhere;
  System.recover sys 0;
  System.run_for sys (sec 5.);
  List.iter
    (fun s ->
      match System.twopc_replica sys s with
      | Some r -> check_int (Printf.sprintf "S%d resolved" s) 0 (Twopc_replica.in_doubt r)
      | None -> ())
    [ 0; 1; 2 ];
  check_bool "presumed abort everywhere" true
    (List.for_all (fun s -> not (System.committed_on sys ~server:s 0)) [ 0; 1; 2 ])

let test_read_only_commits_locally () =
  let sys = make () in
  let outcome = ref None in
  System.submit sys ~delegate:1
    ~on_response:(fun o -> outcome := Some o)
    (tx ~id:0 [ Db.Op.Read 1; Db.Op.Read 2 ]);
  System.run_for sys (sec 2.);
  check_bool "no 2PC round for reads" true (!outcome = Some Db.Testable_tx.Committed)

let () =
  Alcotest.run "twopc"
    [
      ( "eager_2pc",
        [
          Alcotest.test_case "commits and converges" `Quick test_commits_and_converges;
          Alcotest.test_case "conflicts serialise or abort" `Quick
            test_conflicting_coordinators_serialise_or_abort;
          Alcotest.test_case "2-safe under total crash" `Quick test_survives_total_crash_after_ack;
          Alcotest.test_case "participant down forces abort" `Quick
            test_participant_down_forces_abort;
          Alcotest.test_case "blocking and presumed abort" `Quick test_blocking_and_presumed_abort;
          Alcotest.test_case "read-only stays local" `Quick test_read_only_commits_locally;
        ] );
    ]
