(* Tests for the group-communication stack: failure detector, Paxos core,
   replicated log, and both atomic-broadcast primitives — including the
   paper's Fig. 5 (classical broadcast loses unprocessed messages on a
   group failure) and Fig. 7 (end-to-end broadcast replays them). *)

open Gcs

let ms = Sim.Sim_time.span_ms
let sec x = Sim.Sim_time.span_s x
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_for engine span =
  Sim.Engine.run ~until:(Sim.Sim_time.add (Sim.Engine.now engine) span) engine

(* ---- Process classes ---- *)

let test_process_classes () =
  let t = Sim.Sim_time.of_us in
  let horizon = t 1_000_000 in
  let classify = Process_class.classify ~horizon in
  check_bool "green" true
    (Process_class.equal Process_class.Green
       (classify { crashes = []; recoveries = []; up_at_end = true }));
  check_bool "yellow" true
    (Process_class.equal Process_class.Yellow
       (classify { crashes = [ t 10 ]; recoveries = [ t 20 ]; up_at_end = true }));
  check_bool "red when down at end" true
    (Process_class.equal Process_class.Red
       (classify { crashes = [ t 10 ]; recoveries = []; up_at_end = false }));
  check_bool "red when unstable near horizon" true
    (Process_class.equal Process_class.Red
       (Process_class.classify ~stability_window:(ms 200.) ~horizon
          { crashes = [ t 900_000 ]; recoveries = [ t 950_000 ]; up_at_end = true }));
  check_bool "good" true (Process_class.is_good Process_class.Yellow);
  check_bool "not good" false (Process_class.is_good Process_class.Red)

(* ---- Delivery-delay gate ---- *)

let test_delivery_gate () =
  let e = Sim.Engine.create () in
  let p = Sim.Process.create e ~name:"P" in
  let delivered = ref [] in
  let deliver x () = delivered := x :: !delivered in
  (* Pass-through gate is synchronous. *)
  Delivery_delay.gate Delivery_delay.pass (deliver "sync");
  check_bool "pass delivers immediately" true (!delivered = [ "sync" ]);
  delivered := [];
  let hold = ref (ms 5.) in
  let gate = Delivery_delay.create p ~delay:(fun () -> !hold) in
  Delivery_delay.gate gate (deliver "a");
  hold := ms 1.;
  Delivery_delay.gate gate (deliver "b");
  check_int "both held" 2 (Delivery_delay.held gate);
  check_bool "nothing delivered yet" true (!delivered = []);
  run_for e (ms 10.);
  (* "b" drew a shorter delay but may not overtake "a": release order is
     delivery order. *)
  check_bool "order preserved" true (List.rev !delivered = [ "a"; "b" ]);
  check_int "drained" 0 (Delivery_delay.held gate)

let test_delivery_gate_crash_and_flush () =
  let e = Sim.Engine.create () in
  let p = Sim.Process.create e ~name:"P" in
  let delivered = ref [] in
  let gate = Delivery_delay.create p ~delay:(fun () -> ms 5.) in
  Delivery_delay.gate gate (fun () -> delivered := "lost" :: !delivered);
  Sim.Process.kill p;
  run_for e (ms 10.);
  check_bool "a crash drops held deliveries" true (!delivered = []);
  Sim.Process.restart p;
  Delivery_delay.gate gate (fun () -> delivered := "flushed" :: !delivered);
  Delivery_delay.flush gate;
  check_bool "flush releases synchronously" true (!delivered = [ "flushed" ])

(* ---- Paxos core ---- *)

let ballot round proposer = { Paxos_core.Ballot.round; proposer }

let test_paxos_promise_then_nack_lower () =
  let a = Paxos_core.acceptor_empty in
  match Paxos_core.receive_prepare a (ballot 2 1) with
  | Paxos_core.Prepare_nack _ -> Alcotest.fail "first prepare must be promised"
  | Paxos_core.Promise (a, prev) ->
    check_bool "no prior accept" true (prev = None);
    (match Paxos_core.receive_prepare a (ballot 1 9) with
     | Paxos_core.Prepare_nack b -> check_bool "nack reports promised" true (b = ballot 2 1)
     | Paxos_core.Promise _ -> Alcotest.fail "lower ballot must be nacked")

let test_paxos_accept_respects_promise () =
  let a = Paxos_core.acceptor_empty in
  match Paxos_core.receive_prepare a (ballot 3 0) with
  | Paxos_core.Prepare_nack _ -> Alcotest.fail "promise expected"
  | Paxos_core.Promise (a, _) ->
    (match Paxos_core.receive_accept a (ballot 2 5) "v" with
     | Paxos_core.Accept_nack _ -> ()
     | Paxos_core.Accepted _ -> Alcotest.fail "lower accept must be nacked");
    (match Paxos_core.receive_accept a (ballot 3 0) "v" with
     | Paxos_core.Accepted a' ->
       check_bool "value recorded" true (a'.Paxos_core.accepted = Some (ballot 3 0, "v"))
     | Paxos_core.Accept_nack _ -> Alcotest.fail "equal ballot must be accepted")

let test_paxos_value_selection () =
  Alcotest.(check (option string))
    "free when no accepts" None
    (Paxos_core.value_to_propose [ None; None ]);
  Alcotest.(check (option string))
    "highest ballot wins" (Some "b")
    (Paxos_core.value_to_propose
       [ Some (ballot 1 0, "a"); None; Some (ballot 2 1, "b"); Some (ballot 1 2, "c") ])

let prop_paxos_promise_monotone =
  QCheck2.Test.make ~name:"promised ballot never decreases" ~count:300
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_range 0 10) (int_range 0 5)))
    (fun ballots ->
      let highest = ref None in
      let acceptor = ref Paxos_core.acceptor_empty in
      List.for_all
        (fun (round, proposer) ->
          let b = ballot round proposer in
          let expect_promise =
            match !highest with
            | None -> true
            | Some h -> Paxos_core.Ballot.compare b h >= 0
          in
          match Paxos_core.receive_prepare !acceptor b with
          | Paxos_core.Promise (a, _) ->
            acceptor := a;
            highest := Some b;
            expect_promise
          | Paxos_core.Prepare_nack _ -> not expect_promise)
        ballots)

(* ---- Cluster fixture ---- *)

module V = struct
  type t = int

  let equal = Int.equal
  let pp = Format.pp_print_int
end

type cluster = {
  engine : Sim.Engine.t;
  network : Net.Network.t;
  ids : Net.Node_id.t array;
  processes : Sim.Process.t array;
  endpoints : Net.Endpoint.t array;
  disks : Sim.Resource.t array;
}

let make_cluster ?(config = Net.Network.lan_config) n =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine config in
  let ids = Array.init n (fun i -> Net.Node_id.make ~index:i ~label:(Printf.sprintf "S%d" i)) in
  let processes =
    Array.init n (fun i -> Sim.Process.create engine ~name:(Net.Node_id.label ids.(i)))
  in
  let endpoints =
    Array.init n (fun i -> Net.Endpoint.attach network ~id:ids.(i) ~process:processes.(i) ())
  in
  let disks = Array.init n (fun _ -> Sim.Resource.create engine ~name:"disk" ~servers:1) in
  { engine; network; ids; processes; endpoints; disks }

let group c = Array.to_list c.ids

(* ---- Failure detector ---- *)

let test_fd_suspects_and_recovers () =
  let c = make_cluster 3 in
  let fds = Array.map (fun ep -> Failure_detector.create ep ~peers:(group c) ()) c.endpoints in
  run_for c.engine (ms 200.);
  check_bool "initially trusts all" true (Net.Node_id.Set.is_empty (Failure_detector.suspected fds.(0)));
  Sim.Process.kill c.processes.(2);
  run_for c.engine (ms 200.);
  check_bool "suspects crashed" true (Failure_detector.suspects fds.(0) c.ids.(2));
  check_int "trusted shrinks" 2 (List.length (Failure_detector.trusted fds.(0)));
  Sim.Process.restart c.processes.(2);
  run_for c.engine (ms 200.);
  check_bool "unsuspects recovered" false (Failure_detector.suspects fds.(0) c.ids.(2))

let test_fd_change_hook () =
  let c = make_cluster 2 in
  let fd = Failure_detector.create c.endpoints.(0) ~peers:(group c) () in
  let changes = ref 0 in
  Failure_detector.on_change fd (fun () -> incr changes);
  Sim.Process.kill c.processes.(1);
  run_for c.engine (ms 200.);
  check_bool "hook fired" true (!changes >= 1)

(* ---- Replicated log ---- *)

module Log = Replicated_log.Make (V)

let make_log_cluster ?(durable = false) ?tuning n =
  let c = make_cluster n in
  let decided = Array.init n (fun _ -> ref []) in
  let members =
    Array.init n (fun i ->
        let mode =
          if durable then
            Log.Durable { disk = c.disks.(i); write_time = (fun () -> ms 8.) }
          else Log.Volatile
        in
        let m = Log.create c.endpoints.(i) ~group:(group c) ~mode ?tuning () in
        Log.on_decide m (fun ~slot:_ vs ->
            List.iter (fun x -> decided.(i) := x :: !(decided.(i))) vs);
        m)
  in
  (c, members, decided)

let decided_list decided i = List.rev !(decided.(i))

let test_log_orders_and_agrees () =
  let c, members, decided = make_log_cluster 3 in
  run_for c.engine (ms 100.) (* let a leader establish *);
  Log.propose members.(0) 10;
  Log.propose members.(1) 20;
  Log.propose members.(2) 30;
  run_for c.engine (sec 1.);
  let l0 = decided_list decided 0 in
  check_int "all three decided" 3 (List.length l0);
  for i = 1 to 2 do
    Alcotest.(check (list int)) "same order everywhere" l0 (decided_list decided i)
  done;
  check_bool "leader exists" true (Array.exists Log.is_leading members)

let test_log_single_leader () =
  let c, members, _ = make_log_cluster 5 in
  run_for c.engine (sec 1.);
  let leaders = Array.to_list members |> List.filter Log.is_leading in
  check_int "exactly one leader" 1 (List.length leaders)

let test_log_survives_leader_crash () =
  let c, members, decided = make_log_cluster 3 in
  run_for c.engine (ms 100.);
  Log.propose members.(1) 1;
  run_for c.engine (sec 1.);
  (* Node 0 (lowest index) is the stable leader; kill it. *)
  check_bool "node 0 leads" true (Log.is_leading members.(0));
  Sim.Process.kill c.processes.(0);
  run_for c.engine (sec 1.) (* failover *);
  Log.propose members.(1) 2;
  Log.propose members.(2) 3;
  run_for c.engine (sec 2.);
  let l1 = decided_list decided 1 and l2 = decided_list decided 2 in
  Alcotest.(check (list int)) "survivors agree" l1 l2;
  check_bool "new values decided" true (List.mem 2 l1 && List.mem 3 l1);
  check_bool "pre-crash value kept" true (List.mem 1 l1)

let test_log_durable_survives_total_crash () =
  let c, members, decided = make_log_cluster ~durable:true 3 in
  run_for c.engine (ms 100.);
  Log.propose members.(0) 42;
  Log.propose members.(1) 43;
  run_for c.engine (sec 2.);
  check_int "decided before crash" 2 (List.length !(decided.(2)));
  (* Crash everyone, then restart everyone: durable acceptor state must let
     the group re-learn both entries. *)
  Array.iter Sim.Process.kill c.processes;
  Array.iter (fun d -> decided.(0) == d |> ignore) decided;
  Array.iter (fun r -> r := []) decided;
  run_for c.engine (ms 100.);
  Array.iter Sim.Process.restart c.processes;
  run_for c.engine (sec 3.);
  for i = 0 to 2 do
    let l = decided_list decided i in
    check_int (Printf.sprintf "member %d re-learned" i) 2 (List.length l);
    check_bool "values preserved" true (List.mem 42 l && List.mem 43 l)
  done

let prop_log_agreement_under_minority_crashes =
  (* Random proposals and a random minority of crashes: all surviving
     members must agree on a common prefix (one decided list is a prefix of
     the other). *)
  let gen =
    QCheck2.Gen.(
      pair (list_size (int_range 1 12) (int_range 0 1000)) (int_range 0 1))
  in
  QCheck2.Test.make ~name:"log agreement under minority crashes" ~count:15 gen
    (fun (values, crash_count) ->
      let c, members, decided = make_log_cluster 3 in
      run_for c.engine (ms 100.);
      List.iteri
        (fun i v ->
          let proposer = i mod 3 in
          Sim.Engine.schedule c.engine ~delay:(ms (float_of_int (i * 7)))
            (fun () -> Log.propose members.(proposer) v))
        values;
      if crash_count = 1 then
        Sim.Engine.schedule c.engine ~delay:(ms 40.) (fun () ->
            Sim.Process.kill c.processes.(2));
      run_for c.engine (sec 3.);
      let l0 = decided_list decided 0 and l1 = decided_list decided 1 in
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
      in
      is_prefix l0 l1 || is_prefix l1 l0)

(* ---- Broadcast-engine tuning: batching, pipelining, ring ---- *)

(* One submission schedule, run through a tuned cluster: all values
   proposed at node 0 (the stable leader), [spacing_tenths]/10 ms apart,
   so the leader's arrival order is the schedule order whatever the
   engine does with message counts. Returns each member's delivered
   stream. *)
let run_log_schedule ?tuning ~spacing_tenths values =
  let c, members, decided = make_log_cluster ?tuning 3 in
  run_for c.engine (ms 200.);
  List.iteri
    (fun i v ->
      Sim.Engine.schedule c.engine
        ~delay:(ms (float_of_int (i * spacing_tenths) /. 10.))
        (fun () -> Log.propose members.(0) v))
    values;
  run_for c.engine (sec 5.);
  Array.to_list (Array.map (fun d -> List.rev !d) decided)

let prop_log_tuning_stream_equivalence =
  (* For any submission sequence and any (batch, window, dissemination),
     every member's delivered stream is identical to the seed
     one-value-per-instance engine's: batching and ring circulation are
     pure transport optimisations, invisible above the log. *)
  let gen =
    QCheck2.Gen.(
      tup5
        (list_size (int_range 1 40) (int_range 0 10_000))
        (int_range 1 30) (* spacing, tenths of a ms *)
        (int_range 1 8) (* batch *)
        (int_range 1 8) (* window *)
        bool (* ring dissemination *))
  in
  QCheck2.Test.make ~name:"tuned engine delivers the seed engine's stream" ~count:25 gen
    (fun (values, spacing_tenths, batch, window, ring) ->
      let baseline = run_log_schedule ~spacing_tenths values in
      let tuning =
        if ring then Bcast_tuning.ring ~batch ~window () else Bcast_tuning.batched ~batch ~window ()
      in
      let tuned = run_log_schedule ~tuning ~spacing_tenths values in
      List.for_all (fun stream -> stream = values) baseline
      && List.for_all (fun stream -> stream = values) tuned)

let test_ring_orders_and_agrees () =
  let c, members, decided = make_log_cluster ~tuning:(Bcast_tuning.ring ()) 5 in
  run_for c.engine (ms 200.);
  Log.propose members.(0) 10;
  Log.propose members.(2) 20;
  Log.propose members.(4) 30;
  run_for c.engine (sec 2.);
  let l0 = decided_list decided 0 in
  check_int "all three decided" 3 (List.length l0);
  for i = 1 to 4 do
    Alcotest.(check (list int)) "same order everywhere" l0 (decided_list decided i)
  done

let test_ring_survives_leader_crash () =
  let c, members, decided = make_log_cluster ~tuning:(Bcast_tuning.ring ~batch:4 ()) 3 in
  run_for c.engine (ms 100.);
  Log.propose members.(1) 1;
  run_for c.engine (sec 1.);
  check_bool "node 0 leads" true (Log.is_leading members.(0));
  Sim.Process.kill c.processes.(0);
  run_for c.engine (sec 1.) (* failover *);
  Log.propose members.(1) 2;
  Log.propose members.(2) 3;
  run_for c.engine (sec 2.);
  let l1 = decided_list decided 1 and l2 = decided_list decided 2 in
  Alcotest.(check (list int)) "survivors agree" l1 l2;
  check_bool "new values decided" true (List.mem 2 l1 && List.mem 3 l1);
  check_bool "pre-crash value kept" true (List.mem 1 l1)

let test_log_batched_inflight_retransmit () =
  (* The PR 2 wedge, batched: a window of in-flight batched Accepts is
     dropped while the leader stays leader (outage shorter than the
     detector timeout). Only the leader's periodic retransmission can
     unwedge those slots — and batching must queue the remaining batches
     behind the stalled window, then flush them once it drains. *)
  let tuning = Bcast_tuning.batched ~batch:4 ~window:2 () in
  let run broken =
    let c, members, decided = make_log_cluster ~tuning 3 in
    if broken then Array.iter Log.break_no_accept_retransmit members;
    run_for c.engine (ms 200.);
    Net.Network.partition c.network [ [ c.ids.(0) ]; [ c.ids.(1); c.ids.(2) ] ];
    (* 16 submissions while cut off: two full batches enter the window
       and are lost; the other two wait behind them. *)
    for v = 1 to 16 do
      Log.propose members.(0) v
    done;
    run_for c.engine (ms 30.) (* heal before anyone suspects anyone *);
    Net.Network.heal c.network;
    run_for c.engine (sec 3.);
    (decided_list decided 1, Log.is_leading members.(0))
  in
  let delivered, still_leading = run false in
  check_bool "leader kept its lease" true still_leading;
  Alcotest.(check (list int))
    "retransmit recovers all batches in order"
    (List.init 16 (fun i -> i + 1))
    delivered;
  let wedged, still_leading = run true in
  check_bool "leader kept its lease (broken)" true still_leading;
  check_bool "without retransmit the batched window wedges" true (wedged = [])

(* ---- Classical atomic broadcast ---- *)

module Snapshot = struct
  type t = int list (* delivered values, newest first *)
end

module Abcast = Atomic_broadcast.Make (V) (Snapshot)

type ab_node = {
  ab : Abcast.t;
  state : int list ref;  (** volatile application state *)
  durable_db : int list ref; [@warning "-69"]
      (** what the app's own disk holds; read only through the cold_start
          closure, never via the field. *)
}

let make_abcast_cluster n =
  let c = make_cluster n in
  let nodes =
    Array.init n (fun i ->
        let state = ref [] and durable_db = ref [] in
        let ab =
          Abcast.create c.endpoints.(i) ~group:(group c)
            ~deliver:(fun v -> state := v :: !state)
            ~get_snapshot:(fun () -> !state)
            ~install_snapshot:(fun s -> state := s)
            ~cold_start:(fun () -> state := !durable_db)
            ()
        in
        { ab; state; durable_db })
  in
  (c, nodes)

let test_abcast_total_order () =
  let c, nodes = make_abcast_cluster 3 in
  run_for c.engine (ms 100.);
  Abcast.broadcast nodes.(0).ab 1;
  Abcast.broadcast nodes.(1).ab 2;
  Abcast.broadcast nodes.(2).ab 3;
  run_for c.engine (sec 1.);
  let l0 = List.rev !(nodes.(0).state) in
  check_int "three delivered" 3 (List.length l0);
  for i = 1 to 2 do
    Alcotest.(check (list int)) "same order" l0 (List.rev !(nodes.(i).state))
  done

let test_abcast_no_duplicates_despite_retransmit () =
  let c, nodes = make_abcast_cluster 3 in
  run_for c.engine (ms 100.);
  Abcast.broadcast nodes.(1).ab 7;
  (* Run long enough for several retransmission periods. *)
  run_for c.engine (sec 1.);
  check_int "delivered exactly once" 1 (List.length !(nodes.(0).state))

let test_abcast_state_transfer_on_single_recovery () =
  let c, nodes = make_abcast_cluster 3 in
  run_for c.engine (ms 100.);
  Abcast.broadcast nodes.(0).ab 1;
  run_for c.engine (sec 1.);
  Sim.Process.kill c.processes.(2);
  Abcast.broadcast nodes.(0).ab 2;
  run_for c.engine (sec 1.);
  Sim.Process.restart c.processes.(2);
  run_for c.engine (sec 1.);
  check_bool "recovered node caught up via state transfer" true
    (List.mem 2 !(nodes.(2).state) && List.mem 1 !(nodes.(2).state));
  check_bool "not a cold start" false (Abcast.cold_started nodes.(2).ab);
  Abcast.broadcast nodes.(1).ab 3;
  run_for c.engine (sec 1.);
  check_bool "rejoined member receives new messages" true (List.mem 3 !(nodes.(2).state))

let test_abcast_fig5_group_failure_loses_messages () =
  (* The paper's Fig. 5: the message is delivered everywhere, no one has
     processed it durably, then every server crashes. On recovery the group
     cold starts from the applications' own durable state: the message is
     gone. *)
  let c, nodes = make_abcast_cluster 3 in
  run_for c.engine (ms 100.);
  Abcast.broadcast nodes.(0).ab 99;
  run_for c.engine (sec 1.);
  Array.iter (fun n -> check_bool "delivered" true (List.mem 99 !(n.state))) nodes;
  (* No application flushed the message to its own disk (durable_db = []).
     Crash everyone. *)
  Array.iter Sim.Process.kill c.processes;
  run_for c.engine (ms 100.);
  Array.iter Sim.Process.restart c.processes;
  run_for c.engine (sec 3.);
  Array.iteri
    (fun i n ->
      check_bool (Printf.sprintf "node %d cold started" i) true (Abcast.cold_started n.ab);
      Alcotest.(check (list int)) "message lost" [] !(n.state))
    nodes;
  (* The reformed group still works. *)
  Abcast.broadcast nodes.(1).ab 5;
  run_for c.engine (sec 1.);
  Array.iter (fun n -> check_bool "group functional again" true (List.mem 5 !(n.state))) nodes

let test_abcast_majority_cold_start_while_one_down () =
  (* S2 and S3 recover while Sd stays down: they form a majority and reform
     the group without waiting for Sd. *)
  let c, nodes = make_abcast_cluster 3 in
  run_for c.engine (ms 100.);
  Abcast.broadcast nodes.(0).ab 1;
  run_for c.engine (sec 1.);
  Array.iter Sim.Process.kill c.processes;
  run_for c.engine (ms 100.);
  Sim.Process.restart c.processes.(1);
  Sim.Process.restart c.processes.(2);
  run_for c.engine (sec 2.);
  check_bool "S2 reformed" false (Abcast.recovering nodes.(1).ab);
  check_bool "S3 reformed" false (Abcast.recovering nodes.(2).ab);
  Abcast.broadcast nodes.(1).ab 2;
  run_for c.engine (sec 1.);
  check_bool "majority group makes progress" true (List.mem 2 !(nodes.(2).state))

(* ---- End-to-end atomic broadcast ---- *)

module E2e = E2e_broadcast.Make (V)

type e2e_node = {
  e2e : E2e.t;
  log_state : (E2e.token * int) list ref;  (** deliveries awaiting ack *)
  processed : int list ref;  (** successfully processed messages *)
}

(* [auto_ack] immediately acknowledges every delivery; otherwise the test
   acks explicitly. *)
let make_e2e_cluster ?(auto_ack = true) n =
  let c = make_cluster n in
  let nodes =
    Array.init n (fun i ->
        let log_state = ref [] and processed = ref [] in
        let rec node = lazy begin
          let e2e =
            E2e.create c.endpoints.(i) ~group:(group c) ~disk:c.disks.(i)
              ~write_time:(fun () -> ms 8.)
              ~deliver:(fun token v ->
                if auto_ack then begin
                  processed := v :: !processed;
                  E2e.ack (Lazy.force node).e2e token
                end
                else log_state := (token, v) :: !log_state)
              ()
          in
          { e2e; log_state; processed }
        end in
        Lazy.force node)
  in
  (c, nodes)

let test_e2e_deliver_and_ack () =
  let c, nodes = make_e2e_cluster 3 in
  run_for c.engine (ms 100.);
  E2e.broadcast nodes.(0).e2e 11;
  run_for c.engine (sec 2.);
  Array.iteri
    (fun i n ->
      Alcotest.(check (list int)) (Printf.sprintf "node %d processed" i) [ 11 ] !(n.processed);
      check_int "cursor advanced" 1 (E2e.acked_slot n.e2e))
    nodes

let test_e2e_replays_unacked_after_total_crash () =
  (* Fig. 7: deliveries that were never acknowledged are replayed after
     recovery, even when every member crashed. *)
  let c, nodes = make_e2e_cluster ~auto_ack:false 3 in
  run_for c.engine (ms 100.);
  E2e.broadcast nodes.(0).e2e 77;
  run_for c.engine (sec 2.);
  Array.iter (fun n -> check_int "delivered, unacked" 1 (List.length !(n.log_state))) nodes;
  Array.iter Sim.Process.kill c.processes;
  Array.iter (fun n -> n.log_state := []) nodes;
  run_for c.engine (ms 100.);
  Array.iter Sim.Process.restart c.processes;
  run_for c.engine (sec 5.);
  Array.iteri
    (fun i n ->
      check_int (Printf.sprintf "node %d redelivered" i) 1 (List.length !(n.log_state));
      check_bool "same message" true (List.exists (fun (_, v) -> v = 77) !(n.log_state)))
    nodes

let test_e2e_no_replay_after_ack_durable () =
  let c, nodes = make_e2e_cluster 3 in
  run_for c.engine (ms 100.);
  E2e.broadcast nodes.(0).e2e 5;
  run_for c.engine (sec 2.) (* processed, acked, cursor durable *);
  Array.iter (fun n -> check_int "cursor at 1" 1 (E2e.acked_slot n.e2e)) nodes;
  Array.iter Sim.Process.kill c.processes;
  Array.iter (fun n -> n.processed := []) nodes;
  run_for c.engine (ms 100.);
  Array.iter Sim.Process.restart c.processes;
  run_for c.engine (sec 5.);
  Array.iteri
    (fun i n ->
      Alcotest.(check (list int))
        (Printf.sprintf "node %d not redelivered" i)
        [] !(n.processed))
    nodes

let test_e2e_total_order_multiple () =
  let c, nodes = make_e2e_cluster 3 in
  run_for c.engine (ms 100.);
  for v = 1 to 5 do
    E2e.broadcast nodes.(v mod 3).e2e v
  done;
  run_for c.engine (sec 3.);
  let l0 = List.rev !(nodes.(0).processed) in
  check_int "all five" 5 (List.length l0);
  for i = 1 to 2 do
    Alcotest.(check (list int)) "same order" l0 (List.rev !(nodes.(i).processed))
  done

(* ---- One failure detector per endpoint ---- *)

(* Messages the whole network sends over 2 s of idle time, after a 1 s
   settle (first election, first heartbeat rounds). *)
let idle_messages engine network =
  run_for engine (sec 1.);
  let before = Net.Network.messages_sent network in
  run_for engine (sec 2.);
  Net.Network.messages_sent network - before

let idle_log_messages ~durable n =
  let c, _, _ = make_log_cluster ~durable n in
  idle_messages c.engine c.network

(* The ordering log's detector is its endpoint's only one, and view
   repair subscribes to it: an idle broadcast group of either kind sends
   exactly what a bare log group of the same mode sends. *)
let test_fd_one_per_endpoint_broadcasts () =
  let c, _ = make_abcast_cluster 3 in
  check_int "abcast group sends what a volatile log group sends"
    (idle_log_messages ~durable:false 3)
    (idle_messages c.engine c.network);
  let c, _ = make_e2e_cluster 3 in
  check_int "e2e group sends what a durable log group sends"
    (idle_log_messages ~durable:true 3)
    (idle_messages c.engine c.network)

(* The same over whole DSM systems on Table 4's nine servers: the 2-safe
   response rule subscribes to the end-to-end broadcast's detector, so no
   replica adds a heartbeat stream to its log's. *)
let test_fd_one_per_endpoint_systems () =
  let module System = Groupsafe.System in
  List.iter
    (fun (mode, durable) ->
      let sys = System.create ~trace_enabled:false (System.Dsm mode) in
      check_int
        (System.technique_name (System.Dsm mode) ^ " system sends what a log group sends")
        (idle_log_messages ~durable (System.n_servers sys))
        (idle_messages (System.engine sys) (System.network sys)))
    [ (Groupsafe.Dsm_replica.Group_safe_mode, false); (Groupsafe.Dsm_replica.Two_safe_mode, true) ]

let test_abcast_views_follow_membership () =
  let c, nodes = make_abcast_cluster 3 in
  let views = Array.init 3 (fun _ -> ref []) in
  Array.iteri
    (fun i n -> Abcast.on_view_change n.ab (fun v -> views.(i) := v :: !(views.(i))))
    nodes;
  run_for c.engine (ms 200.);
  check_int "initial view is everyone" 3 (View.size (Abcast.current_view nodes.(0).ab));
  check_int "initial view id" 0 (Abcast.current_view nodes.(0).ab).View.id;
  (* Crash S2: the survivors must install a view without it. *)
  Sim.Process.kill c.processes.(2);
  run_for c.engine (sec 1.);
  for i = 0 to 1 do
    let v = Abcast.current_view nodes.(i).ab in
    check_int (Printf.sprintf "S%d sees 2 members" i) 2 (View.size v);
    check_bool "crashed member excluded" false (View.mem v c.ids.(2))
  done;
  check_bool "still primary" true
    (View.is_primary (Abcast.current_view nodes.(0).ab) ~static_group:(group c));
  (* Recover S2: after state transfer it proposes itself back in. *)
  Sim.Process.restart c.processes.(2);
  run_for c.engine (sec 2.);
  for i = 0 to 2 do
    let v = Abcast.current_view nodes.(i).ab in
    check_int (Printf.sprintf "S%d back to 3 members" i) 3 (View.size v)
  done;
  (* Every member installed the same view sequence (ids and memberships),
     modulo the prefix the rejoiner adopted via state transfer. *)
  let seq i = List.rev_map (fun v -> (v.View.id, List.map Net.Node_id.index v.View.members)) !(views.(i)) in
  Alcotest.(check (list (pair int (list int)))) "same view sequence on survivors" (seq 0) (seq 1)

let test_abcast_view_change_ordered_with_messages () =
  (* A view change and application messages share the total order: both
     survivors see the view change at the same position in their delivery
     streams. *)
  let c, nodes = make_abcast_cluster 3 in
  let streams = Array.init 3 (fun _ -> ref []) in
  Array.iteri
    (fun i n ->
      Abcast.on_view_change n.ab (fun v -> streams.(i) := `View v.View.id :: !(streams.(i))))
    nodes;
  (* Also tag message deliveries into the same stream via the state list:
     we reuse the deliver callback's effect by sampling after the run. *)
  run_for c.engine (ms 200.);
  Abcast.broadcast nodes.(0).ab 1;
  run_for c.engine (ms 300.);
  Sim.Process.kill c.processes.(2);
  run_for c.engine (sec 1.);
  Abcast.broadcast nodes.(1).ab 2;
  run_for c.engine (sec 1.);
  let stream i = List.rev !(streams.(i)) in
  Alcotest.(check bool) "survivors agree on view positions" true (stream 0 = stream 1);
  check_bool "both messages delivered" true
    (List.mem 1 !(nodes.(0).state) && List.mem 2 !(nodes.(0).state))

let test_log_minority_partition_stalls_then_heals () =
  (* Quorum safety and liveness around a partition: the isolated member
     makes no progress; the majority side continues; after healing the
     isolated member catches up with the same sequence. *)
  let c, members, decided = make_log_cluster 3 in
  run_for c.engine (ms 200.);
  Log.propose members.(0) 1;
  run_for c.engine (sec 1.);
  Net.Network.partition c.network [ [ c.ids.(0) ]; [ c.ids.(1); c.ids.(2) ] ];
  run_for c.engine (sec 1.) (* majority side elects S1 *);
  Log.propose members.(1) 2;
  Log.propose members.(2) 3;
  run_for c.engine (sec 2.);
  let l0_during = decided_list decided 0 in
  check_bool "isolated member stalls" true (not (List.mem 2 l0_during));
  check_bool "majority progresses" true
    (List.mem 2 (decided_list decided 1) && List.mem 3 (decided_list decided 1));
  Net.Network.heal c.network;
  run_for c.engine (sec 2.);
  Alcotest.(check (list int)) "isolated member catches up to the same order"
    (decided_list decided 1) (decided_list decided 0)

let test_log_non_uniform_agrees_without_faults () =
  let c = make_cluster 3 in
  let decided = Array.init 3 (fun _ -> ref []) in
  let members =
    Array.init 3 (fun i ->
        let m = Log.create c.endpoints.(i) ~group:(group c) ~mode:Log.Volatile ~uniform:false () in
        Log.on_decide m (fun ~slot:_ vs ->
            List.iter (fun x -> decided.(i) := x :: !(decided.(i))) vs);
        m)
  in
  run_for c.engine (ms 200.);
  Log.propose members.(0) 7;
  Log.propose members.(1) 8;
  run_for c.engine (sec 2.);
  let l0 = decided_list decided 0 in
  check_int "both decided" 2 (List.length l0);
  for i = 1 to 2 do
    Alcotest.(check (list int)) "same optimistic order" l0 (decided_list decided i)
  done

let prop_e2e_agreement_under_crash_storms =
  (* Random broadcasts against random crash/recovery churn of any severity
     (including whole-group outages). After everyone is back and the dust
     settles, the deduplicated processed streams must be identical on all
     members: same values, same order — uniform total order with
     end-to-end replay. *)
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 10) (pair (int_range 0 2) (int_range 0 500)))
        (* (sender, send time ms) *)
        (list_size (int_range 0 4) (triple (int_range 0 2) (int_range 0 400) (int_range 50 300))))
    (* (victim, crash time ms, outage ms) *)
  in
  QCheck2.Test.make ~name:"e2e broadcast agreement under crash storms" ~count:20 gen
    (fun (sends, crashes) ->
      let c, nodes = make_e2e_cluster 3 in
      List.iteri
        (fun i (sender, at) ->
          Sim.Engine.schedule c.engine
            ~delay:(ms (float_of_int at))
            (fun () ->
              if Sim.Process.alive c.processes.(sender) then
                E2e.broadcast nodes.(sender).e2e (1000 + i)))
        sends;
      List.iter
        (fun (victim, at, outage) ->
          Sim.Engine.schedule c.engine
            ~delay:(ms (float_of_int at))
            (fun () -> Sim.Process.kill c.processes.(victim));
          Sim.Engine.schedule c.engine
            ~delay:(ms (float_of_int (at + outage)))
            (fun () -> Sim.Process.restart c.processes.(victim)))
        crashes;
      run_for c.engine (sec 2.);
      Array.iter (fun p -> if not (Sim.Process.alive p) then Sim.Process.restart p) c.processes;
      run_for c.engine (sec 10.);
      let dedup l =
        List.rev
          (List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) [] (List.rev l))
      in
      let stream i = dedup (List.rev !(nodes.(i).processed)) in
      let s0 = stream 0 in
      stream 1 = s0 && stream 2 = s0)

(* ---- Uid sets ---- *)

type uid_op =
  | Us_add of Uid.t
  | Us_burst of int * int * int * int  (** origin, incarnation, first seq, length *)
  | Us_reset
  | Us_transfer of Uid.t list  (** export, then import into a new set holding these *)

(* The runs a set holding exactly the model's uids must export: per
   (origin, incarnation), ascending, the least absent seq and the members
   above it. *)
let model_runs m =
  let uids = List.sort Uid.compare (Hashtbl.fold (fun u () acc -> u :: acc) m []) in
  let keys = List.sort_uniq compare (List.map (fun u -> (u.Uid.origin, u.Uid.incarnation)) uids) in
  List.map
    (fun (origin, incarnation) ->
      let rec least seq =
        if Hashtbl.mem m { Uid.origin; incarnation; seq } then least (seq + 1) else seq
      in
      let below = least 0 in
      let above =
        List.filter_map
          (fun u ->
            if u.Uid.origin = origin && u.Uid.incarnation = incarnation && u.Uid.seq > below then
              Some u.Uid.seq
            else None)
          uids
      in
      { Uid_set.origin; incarnation; below; above })
    keys

let prop_uid_set_matches_hashtbl_set =
  (* Three origins with three incarnations each; seqs mostly small, so
     out-of-order arrivals, duplicates and gaps that fill late are common,
     with in-order bursts and some far seqs whose gaps never fill. *)
  let uid =
    QCheck2.Gen.(
      map3
        (fun origin incarnation seq -> { Uid.origin; incarnation; seq })
        (int_range 0 2) (int_range 0 2)
        (frequency [ (3, int_range 0 12); (1, int_range 0 40) ]))
  in
  let op =
    QCheck2.Gen.(
      frequency
        [
          (8, map (fun u -> Us_add u) uid);
          ( 2,
            map
              (fun (o, i, first, len) -> Us_burst (o, i, first, len))
              (quad (int_range 0 2) (int_range 0 2) (int_range 0 20) (int_range 1 12)) );
          (1, pure Us_reset);
          (2, map (fun l -> Us_transfer l) (list_size (int_range 0 6) uid));
        ])
  in
  QCheck2.Test.make ~name:"uid runs match a hashtable set" ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) op)
    (fun ops ->
      let s = ref (Uid_set.create ()) and m = Hashtbl.create 16 in
      let add u =
        let fresh = not (Hashtbl.mem m u) in
        Hashtbl.replace m u ();
        Uid_set.add !s u = fresh
      in
      let step = function
        | Us_add u -> add u
        | Us_burst (origin, incarnation, first, len) ->
          List.for_all
            (fun k -> add { Uid.origin; incarnation; seq = first + k })
            (List.init len Fun.id)
        | Us_reset ->
          Uid_set.reset !s;
          Hashtbl.reset m;
          true
        | Us_transfer held ->
          let runs = Uid_set.export !s in
          let target = Uid_set.create () in
          List.iter (fun u -> ignore (Uid_set.add target u)) held;
          Uid_set.import target runs;
          s := target;
          List.iter (fun u -> Hashtbl.replace m u ()) held;
          true
      in
      List.for_all (fun op -> step op && Uid_set.export !s = model_runs m) ops)

(* ---- View ---- *)

let test_view_basics () =
  let n i = Net.Node_id.make ~index:i ~label:(Printf.sprintf "S%d" i) in
  let all = [ n 0; n 1; n 2; n 3; n 4 ] in
  let v0 = View.initial all in
  check_int "view id" 0 v0.View.id;
  check_int "size" 5 (View.size v0);
  check_bool "member" true (View.mem v0 (n 3));
  let v1 = View.next v0 ~members:[ n 0; n 1; n 2 ] in
  check_int "next id" 1 v1.View.id;
  check_bool "majority is primary" true (View.is_primary v1 ~static_group:all);
  let v2 = View.next v1 ~members:[ n 0; n 1 ] in
  check_bool "minority is not primary" false (View.is_primary v2 ~static_group:all);
  check_int "quorum of 5" 3 (View.quorum 5);
  check_int "quorum of 4" 3 (View.quorum 4)

(* ---- Retransmission driver ---- *)

let retransmit_fixture ?(jitter = 0.) ?(seed = 1L) ~pending () =
  let e = Sim.Engine.create ~seed () in
  let p = Sim.Process.create e ~name:"RT" in
  let fires = ref [] in
  let config = { Retransmit.base = ms 100.; cap = ms 800.; multiplier = 2.; jitter } in
  let rt =
    Retransmit.create ~config ~process:p
      ~rng:(Sim.Rng.split (Sim.Engine.rng e))
      ~pending
      ~action:(fun () -> fires := Sim.Sim_time.to_us (Sim.Engine.now e) :: !fires)
      ()
  in
  (e, p, rt, fun () -> List.rev !fires)

let test_retransmit_backoff_and_cap () =
  let e, _, rt, fires = retransmit_fixture ~pending:(fun () -> true) () in
  Retransmit.arm rt;
  run_for e (sec 3.);
  (* 100, +200, +400, then capped at +800. *)
  Alcotest.(check (list int)) "exponential then capped"
    [ 100_000; 300_000; 700_000; 1_500_000; 2_300_000 ]
    (fires ());
  check_int "interval sits at the cap"
    (Sim.Sim_time.span_to_us (ms 800.))
    (Sim.Sim_time.span_to_us (Retransmit.current_interval rt))

let test_retransmit_progress_resets () =
  let e, _, rt, fires = retransmit_fixture ~pending:(fun () -> true) () in
  Retransmit.arm rt;
  run_for e (ms 400.);
  Alcotest.(check (list int)) "backed off" [ 100_000; 300_000 ] (fires ());
  Retransmit.progress rt;
  check_int "interval back to base"
    (Sim.Sim_time.span_to_us (ms 100.))
    (Sim.Sim_time.span_to_us (Retransmit.current_interval rt));
  run_for e (ms 250.);
  (* One base interval after the progress point (t=400), not at the
     backed-off horizon (t=700) — and the stale pre-progress chain stays
     dead. *)
  Alcotest.(check (list int)) "next tick rides the fresh chain"
    [ 100_000; 300_000; 500_000 ]
    (fires ())

let test_retransmit_idle_resets_interval () =
  let busy = ref true in
  let e, _, rt, fires = retransmit_fixture ~pending:(fun () -> !busy) () in
  Retransmit.arm rt;
  run_for e (ms 400.);
  busy := false;
  (* The idle tick at t=700 runs no action and resets the interval. *)
  run_for e (ms 350.);
  Alcotest.(check (list int)) "no action while idle" [ 100_000; 300_000 ] (fires ());
  check_int "idle tick reset the interval"
    (Sim.Sim_time.span_to_us (ms 100.))
    (Sim.Sim_time.span_to_us (Retransmit.current_interval rt))

let test_retransmit_jitter_deterministic () =
  let ticks seed =
    let e, _, rt, fires = retransmit_fixture ~jitter:0.1 ~seed ~pending:(fun () -> true) () in
    Retransmit.arm rt;
    run_for e (sec 1.);
    fires ()
  in
  let a = ticks 5L in
  Alcotest.(check (list int)) "same seed, same instants" a (ticks 5L);
  check_bool "different seed drifts" true (a <> ticks 6L);
  (match a with
   | first :: _ ->
     check_bool "jitter delays past the base" true (first >= 100_000);
     check_bool "jitter bounded by the fraction" true (first < 110_000)
   | [] -> Alcotest.fail "no ticks recorded")

let test_retransmit_rearm_collapses_chains () =
  let e, _, rt, fires = retransmit_fixture ~pending:(fun () -> true) () in
  (* Two arms back to back must leave ONE live chain: the first chain's
     tick is due at the same instant as the second's, and only the epoch
     check stops it from double-firing the action. *)
  Retransmit.arm rt;
  Retransmit.arm rt;
  run_for e (ms 350.);
  Alcotest.(check (list int)) "no duplicate ticks" [ 100_000; 300_000 ] (fires ());
  (* Re-arming an already-backed-off driver starts over from base. *)
  Retransmit.arm rt;
  run_for e (ms 150.);
  Alcotest.(check (list int)) "re-arm restarts from base"
    [ 100_000; 300_000; 450_000 ]
    (fires ())

let test_retransmit_jitter_respects_cap () =
  let e, _, rt, fires = retransmit_fixture ~jitter:0.25 ~seed:9L ~pending:(fun () -> true) () in
  Retransmit.arm rt;
  run_for e (sec 8.);
  let ticks = fires () in
  check_bool "kept firing" true (List.length ticks >= 6);
  (* Every gap is one jittered interval: at least the base, at most the
     cap stretched by the full jitter fraction — the jitter multiplies
     the un-jittered interval, so it can never push past cap * 1.25. *)
  let rec gaps_ok prev = function
    | [] -> true
    | tick :: rest ->
      let gap = tick - prev in
      gap >= 100_000 && gap <= 1_000_000 && gaps_ok tick rest
  in
  check_bool "gaps within [base, cap * (1 + jitter)]" true (gaps_ok 0 ticks);
  check_bool "stored interval never exceeds the cap" true
    (Sim.Sim_time.span_to_us (Retransmit.current_interval rt)
    <= Sim.Sim_time.span_to_us (ms 800.))

let test_retransmit_progress_at_cap_restarts_base_chain () =
  let e, _, rt, fires = retransmit_fixture ~pending:(fun () -> true) () in
  Retransmit.arm rt;
  run_for e (sec 2.);
  Alcotest.(check (list int)) "backed off to the cap"
    [ 100_000; 300_000; 700_000; 1_500_000 ]
    (fires ());
  check_int "interval at the cap"
    (Sim.Sim_time.span_to_us (ms 800.))
    (Sim.Sim_time.span_to_us (Retransmit.current_interval rt));
  Retransmit.progress rt;
  check_int "progress unwinds the cap"
    (Sim.Sim_time.span_to_us (ms 100.))
    (Sim.Sim_time.span_to_us (Retransmit.current_interval rt));
  run_for e (ms 150.);
  (* One base interval after progress (t = 2000), not the capped chain's
     horizon (t = 2300) — the stale capped tick must stay dead. *)
  Alcotest.(check (list int)) "fresh base chain replaces the capped one"
    [ 100_000; 300_000; 700_000; 1_500_000; 2_100_000 ]
    (fires ())

let test_retransmit_crash_silences_until_rearmed () =
  let e, p, rt, fires = retransmit_fixture ~pending:(fun () -> true) () in
  Retransmit.arm rt;
  run_for e (ms 150.);
  Sim.Process.kill p;
  run_for e (ms 850.);
  Alcotest.(check (list int)) "silent while down" [ 100_000 ] (fires ());
  Sim.Process.restart p;
  Retransmit.arm rt;
  run_for e (ms 150.);
  Alcotest.(check (list int)) "resumes one base interval after re-arm"
    [ 100_000; 1_100_000 ]
    (fires ())

(* ---- Property: the detector is eventually perfect ---- *)

(* Model-based: each round silences S1 one of two ways (crash or
   partition) for longer than the detection timeout, then repairs it for
   longer than a heartbeat round-trip. The model says S0's detector must
   raise the suspicion while S1 is silent, clear it after the repair, and
   count both transitions — silence is eventually suspected, a heal is
   eventually trusted again, under any interleaving of the two fault
   kinds and any (sufficient) durations. *)
let prop_fd_eventually_suspects_and_clears =
  let gen =
    QCheck2.Gen.(list_size (int_range 1 6) (triple bool (int_range 100 300) (int_range 150 300)))
  in
  QCheck2.Test.make ~name:"fd: silence eventually suspected, heal eventually trusted" ~count:30
    gen (fun rounds ->
      let c = make_cluster 2 in
      let fds = Array.map (fun ep -> Failure_detector.create ep ~peers:(group c) ()) c.endpoints in
      let fd = fds.(0) in
      run_for c.engine (ms 100.);
      List.for_all
        (fun (use_partition, down_ms, up_ms) ->
          let before = Failure_detector.changes fd in
          (if use_partition then Net.Network.partition c.network [ [ c.ids.(1) ] ]
           else Sim.Process.kill c.processes.(1));
          run_for c.engine (ms (float_of_int down_ms));
          let suspected = Failure_detector.suspects fd c.ids.(1) in
          let raised = Failure_detector.changes fd > before in
          (if use_partition then Net.Network.heal c.network
           else Sim.Process.restart c.processes.(1));
          run_for c.engine (ms (float_of_int up_ms));
          suspected && raised
          && (not (Failure_detector.suspects fd c.ids.(1)))
          && Failure_detector.changes fd >= before + 2)
        rounds)

(* ---- Property: [trusted] always matches the suspect set ---- *)

(* [trusted] is memoised. Over a random kill/restart/partition/heal
   schedule on four members, after every simulated event, each detector's
   answer must equal the list rebuilt from [suspected]: self plus the
   unsuspected peers, sorted by index. A change to the suspect set that
   left the memo standing shows up as a mismatch at the next event. The
   tick that raises suspicions is checked too: a detector notifies only
   when its suspect set changed, and a peer it newly suspects was silent
   for more than a full timeout, against each member's last-heard
   instants rebuilt outside the detector (a (re)start counts as hearing
   everyone; every message in this cluster is a heartbeat). *)
type fd_fault = Fd_kill of int | Fd_restart of int | Fd_partition of bool list | Fd_heal

let prop_fd_trusted_matches_suspected =
  let n = 4 in
  let fault =
    QCheck2.Gen.(
      oneof
        [
          map (fun i -> Fd_kill i) (int_range 0 (n - 1));
          map (fun i -> Fd_restart i) (int_range 0 (n - 1));
          map (fun side -> Fd_partition side) (list_repeat n bool);
          pure Fd_heal;
        ])
  in
  (* The schedule opens with a kill left standing for 100 ms, so every run
     sees suspicions raised. *)
  let gen =
    QCheck2.Gen.(
      pair (int_range 0 (n - 1)) (list_size (int_range 1 12) (pair (int_range 0 120) fault)))
  in
  QCheck2.Test.make ~name:"fd: trusted equals self plus unsuspected peers" ~count:100 gen
    (fun (first, rest) ->
      let schedule = (0, Fd_kill first) :: (100, Fd_heal) :: rest in
      let c = make_cluster n in
      let fds = Array.map (fun ep -> Failure_detector.create ep ~peers:(group c) ()) c.endpoints in
      let now_us () = Sim.Sim_time.to_us (Sim.Engine.now c.engine) in
      let last_heard = Array.make_matrix n n 0 in
      Array.iteri
        (fun i ep ->
          Net.Endpoint.add_handler ep (fun m ->
              last_heard.(i).(Net.Node_id.index m.Net.Message.src) <- now_us ();
              false);
          Sim.Process.on_restart c.processes.(i) (fun () ->
              Array.fill last_heard.(i) 0 n (now_us ())))
        c.endpoints;
      let timeout = Sim.Sim_time.span_to_us Failure_detector.default_config.timeout in
      let apply = function
        | Fd_kill i -> Sim.Process.kill c.processes.(i)
        | Fd_restart i -> Sim.Process.restart c.processes.(i)
        | Fd_partition side ->
          let members keep =
            List.filteri (fun i _ -> Bool.equal (List.nth side i) keep) (group c)
          in
          Net.Network.partition c.network [ members true; members false ]
        | Fd_heal -> Net.Network.heal c.network
      in
      let at = ref 0 in
      List.iter
        (fun (gap_ms, f) ->
          at := !at + gap_ms;
          Sim.Engine.schedule c.engine ~delay:(ms (float_of_int !at)) (fun () -> apply f))
        schedule;
      let expected i =
        let suspected = Failure_detector.suspected fds.(i) in
        List.filter
          (fun p -> Net.Node_id.equal p c.ids.(i) || not (Net.Node_id.Set.mem p suspected))
          (group c)
      in
      let agree () =
        Array.for_all Fun.id
          (Array.mapi
             (fun i fd -> List.equal Net.Node_id.equal (Failure_detector.trusted fd) (expected i))
             fds)
      in
      let snapshot () =
        Array.map (fun fd -> (Failure_detector.suspected fd, Failure_detector.changes fd)) fds
      in
      let ticked_soundly before =
        let now = now_us () in
        Array.for_all Fun.id
          (Array.mapi
             (fun i fd ->
               let was, notified = before.(i) in
               let is = Failure_detector.suspected fd in
               (Failure_detector.changes fd = notified || not (Net.Node_id.Set.equal is was))
               && Net.Node_id.Set.for_all
                    (fun p ->
                      Net.Node_id.Set.mem p was
                      || now - timeout > last_heard.(i).(Net.Node_id.index p))
                    is)
             fds)
      in
      let horizon = Sim.Sim_time.add Sim.Sim_time.zero (ms (float_of_int (!at + 300))) in
      let rec drive before =
        if Sim.Sim_time.(Sim.Engine.now c.engine >= horizon) || not (Sim.Engine.step c.engine)
        then Array.exists (fun (_, changes) -> changes > 0) before
        else agree () && ticked_soundly before && drive (snapshot ())
      in
      drive (snapshot ()))

(* ---- Property: the delivery gate holds, orders and always releases ---- *)

(* Each generated item is (arrival offset, extra hold): deliveries enter
   the gate in arrival order, each drawing its own hold from the thunk.
   The gate must release every one of them — none held once every delay
   has elapsed — in exactly entry order (a later delivery never overtakes
   an earlier one, however short its hold), and never before the
   delivery's own arrival + hold. *)
let prop_delivery_gate_fifo_and_release =
  let gen =
    QCheck2.Gen.(list_size (int_range 1 25) (pair (int_range 0 5_000) (int_range 0 3_000)))
  in
  QCheck2.Test.make ~name:"delivery gate: entry-order FIFO, every hold released" ~count:100 gen
    (fun items ->
      let e = Sim.Engine.create () in
      let p = Sim.Process.create e ~name:"P" in
      let delays = Queue.create () in
      let gate =
        Delivery_delay.create p ~delay:(fun () ->
            match Queue.take_opt delays with
            | Some us -> Sim.Sim_time.span_us us
            | None -> Sim.Sim_time.span_us 0)
      in
      let released = ref [] in
      let items = List.sort compare items in
      List.iteri
        (fun i (arrive_us, delay_us) ->
          Sim.Process.after p
            (Sim.Sim_time.span_us arrive_us)
            (fun () ->
              Queue.push delay_us delays;
              Delivery_delay.gate gate (fun () ->
                  released := (i, Sim.Engine.now e) :: !released)))
        items;
      run_for e (ms 20.);
      let rel = List.rev !released in
      List.length rel = List.length items
      && List.mapi (fun i _ -> i) items = List.map fst rel
      && List.for_all2
           (fun (arrive_us, delay_us) (_, at) -> Sim.Sim_time.to_us at >= arrive_us + delay_us)
           items rel
      && Delivery_delay.held gate = 0)

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "gcs"
    [
      ("process_class", [ Alcotest.test_case "classification" `Quick test_process_classes ]);
      ( "delivery_delay",
        Alcotest.test_case "gates and preserves order" `Quick test_delivery_gate
        :: Alcotest.test_case "crash drops, flush drains" `Quick test_delivery_gate_crash_and_flush
        :: qsuite [ prop_delivery_gate_fifo_and_release ] );
      ( "paxos_core",
        Alcotest.test_case "promise then nack lower" `Quick test_paxos_promise_then_nack_lower
        :: Alcotest.test_case "accept respects promise" `Quick test_paxos_accept_respects_promise
        :: Alcotest.test_case "value selection" `Quick test_paxos_value_selection
        :: qsuite [ prop_paxos_promise_monotone ] );
      ( "failure_detector",
        Alcotest.test_case "suspects and recovers" `Quick test_fd_suspects_and_recovers
        :: Alcotest.test_case "change hook" `Quick test_fd_change_hook
        :: Alcotest.test_case "one per endpoint: idle broadcast groups" `Quick
             test_fd_one_per_endpoint_broadcasts
        :: Alcotest.test_case "one per endpoint: idle DSM systems" `Quick
             test_fd_one_per_endpoint_systems
        :: qsuite [ prop_fd_eventually_suspects_and_clears; prop_fd_trusted_matches_suspected ] );
      ( "retransmit",
        [
          Alcotest.test_case "backoff and cap" `Quick test_retransmit_backoff_and_cap;
          Alcotest.test_case "progress resets" `Quick test_retransmit_progress_resets;
          Alcotest.test_case "idle resets" `Quick test_retransmit_idle_resets_interval;
          Alcotest.test_case "jitter determinism" `Quick test_retransmit_jitter_deterministic;
          Alcotest.test_case "crash silences" `Quick test_retransmit_crash_silences_until_rearmed;
          Alcotest.test_case "re-arm collapses chains" `Quick
            test_retransmit_rearm_collapses_chains;
          Alcotest.test_case "jitter respects cap" `Quick test_retransmit_jitter_respects_cap;
          Alcotest.test_case "progress at cap restarts base chain" `Quick
            test_retransmit_progress_at_cap_restarts_base_chain;
        ] );
      ( "replicated_log",
        Alcotest.test_case "orders and agrees" `Quick test_log_orders_and_agrees
        :: Alcotest.test_case "single leader" `Quick test_log_single_leader
        :: Alcotest.test_case "survives leader crash" `Quick test_log_survives_leader_crash
        :: Alcotest.test_case "durable survives total crash" `Quick
             test_log_durable_survives_total_crash
        :: Alcotest.test_case "minority partition stalls then heals" `Quick
             test_log_minority_partition_stalls_then_heals
        :: Alcotest.test_case "non-uniform agrees without faults" `Quick
             test_log_non_uniform_agrees_without_faults
        :: qsuite [ prop_log_agreement_under_minority_crashes ] );
      ( "bcast_tuning",
        Alcotest.test_case "ring orders and agrees" `Quick test_ring_orders_and_agrees
        :: Alcotest.test_case "ring survives leader crash" `Quick test_ring_survives_leader_crash
        :: Alcotest.test_case "batched in-flight accepts retransmit" `Quick
             test_log_batched_inflight_retransmit
        :: qsuite [ prop_log_tuning_stream_equivalence ] );
      ( "atomic_broadcast",
        [
          Alcotest.test_case "total order" `Quick test_abcast_total_order;
          Alcotest.test_case "no duplicates" `Quick test_abcast_no_duplicates_despite_retransmit;
          Alcotest.test_case "state transfer" `Quick test_abcast_state_transfer_on_single_recovery;
          Alcotest.test_case "fig5: group failure loses messages" `Quick
            test_abcast_fig5_group_failure_loses_messages;
          Alcotest.test_case "majority cold start" `Quick
            test_abcast_majority_cold_start_while_one_down;
          Alcotest.test_case "views follow membership" `Quick test_abcast_views_follow_membership;
          Alcotest.test_case "views ordered with messages" `Quick
            test_abcast_view_change_ordered_with_messages;
        ] );
      ( "e2e_broadcast",
        [
          Alcotest.test_case "deliver and ack" `Quick test_e2e_deliver_and_ack;
          Alcotest.test_case "fig7: replay after total crash" `Quick
            test_e2e_replays_unacked_after_total_crash;
          Alcotest.test_case "no replay once acked" `Quick test_e2e_no_replay_after_ack_durable;
          Alcotest.test_case "total order" `Quick test_e2e_total_order_multiple;
          QCheck_alcotest.to_alcotest prop_e2e_agreement_under_crash_storms;
        ] );
      ("view", [ Alcotest.test_case "basics" `Quick test_view_basics ]);
      ("uid_set", [ QCheck_alcotest.to_alcotest prop_uid_set_matches_hashtbl_set ]);
    ]
