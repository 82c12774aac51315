(* Tests for the simulated network: latency, dispatch, crash and partition
   semantics. *)

open Net

let ms = Sim.Sim_time.span_ms
let node i = Node_id.make ~index:i ~label:(Printf.sprintf "N%d" i)

type Message.payload += Ping of int

(* A small fixture: [n] nodes on one network, each recording received
   payloads as (src_index, value) pairs. *)
type fixture = {
  engine : Sim.Engine.t;
  network : Network.t;
  ids : Node_id.t array;
  processes : Sim.Process.t array;
  endpoints : Endpoint.t array;
  received : (int * int) list ref array;
}

let make_fixture ?(config = Network.lan_config) ?(cpus = false) ?seed n =
  let engine = Sim.Engine.create ?seed () in
  let network = Network.create engine config in
  let ids = Array.init n node in
  let processes = Array.init n (fun i -> Sim.Process.create engine ~name:(Node_id.label ids.(i))) in
  let received = Array.init n (fun _ -> ref []) in
  let endpoints =
    Array.init n (fun i ->
        let cpu =
          if cpus then Some (Sim.Resource.create engine ~name:"cpu" ~servers:1) else None
        in
        let ep = Endpoint.attach network ~id:ids.(i) ~process:processes.(i) ?cpu () in
        Endpoint.add_handler ep (fun m ->
            match m.Message.payload with
            | Ping v ->
              received.(i) := (Node_id.index m.Message.src, v) :: !(received.(i));
              true
            | _ -> false);
        ep)
  in
  { engine; network; ids; processes; endpoints; received }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_node_id_basics () =
  let a = node 1 and b = node 2 in
  check_bool "equal self" true (Node_id.equal a a);
  check_bool "distinct" false (Node_id.equal a b);
  check_int "index" 1 (Node_id.index a);
  Alcotest.(check string) "label" "N1" (Node_id.label a);
  check_bool "ordering" true (Node_id.compare a b < 0)

let test_send_delivers_after_transit () =
  let f = make_fixture 2 in
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 7);
  Sim.Engine.run f.engine;
  Alcotest.(check (list (pair int int))) "received" [ (0, 7) ] !(f.received.(1));
  check_int "delivery time is transit" 70 (Sim.Sim_time.to_us (Sim.Engine.now f.engine));
  check_int "sent" 1 (Network.messages_sent f.network);
  check_int "delivered" 1 (Network.messages_delivered f.network)

let test_broadcast_reaches_all_listed () =
  let f = make_fixture 3 in
  Network.broadcast f.network ~src:f.ids.(0)
    ~to_:[ f.ids.(0); f.ids.(1); f.ids.(2) ]
    (Ping 1);
  Sim.Engine.run f.engine;
  Array.iteri (fun i r -> check_int (Printf.sprintf "node %d got it" i) 1 (List.length !r)) f.received

let test_crashed_receiver_drops () =
  let f = make_fixture 2 in
  Sim.Process.kill f.processes.(1);
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 1);
  Sim.Engine.run f.engine;
  check_int "nothing received" 0 (List.length !(f.received.(1)));
  check_int "dropped" 1 (Network.messages_dropped f.network)

let test_crash_during_flight_drops () =
  let f = make_fixture 2 in
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 1);
  (* Crash before the transit delay elapses. *)
  Sim.Engine.schedule f.engine ~delay:(Sim.Sim_time.span_us 10) (fun () ->
      Sim.Process.kill f.processes.(1));
  Sim.Engine.run f.engine;
  check_int "dropped in flight" 0 (List.length !(f.received.(1)))

let test_crashed_sender_noop () =
  let f = make_fixture 2 in
  Sim.Process.kill f.processes.(0);
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 1);
  Sim.Engine.run f.engine;
  check_int "nothing sent from dead node" 0 (List.length !(f.received.(1)))

let test_recovered_receiver_gets_new_messages () =
  let f = make_fixture 2 in
  Sim.Process.kill f.processes.(1);
  Sim.Engine.schedule f.engine ~delay:(ms 1.) (fun () ->
      Sim.Process.restart f.processes.(1);
      Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 2));
  Sim.Engine.run f.engine;
  Alcotest.(check (list (pair int int))) "received after restart" [ (0, 2) ] !(f.received.(1))

let test_partition_blocks_and_heals () =
  let f = make_fixture 3 in
  Network.partition f.network [ [ f.ids.(0) ]; [ f.ids.(1); f.ids.(2) ] ];
  check_bool "cross unreachable" false (Network.reachable f.network f.ids.(0) f.ids.(1));
  check_bool "same side reachable" true (Network.reachable f.network f.ids.(1) f.ids.(2));
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 1);
  Network.send f.network ~src:f.ids.(1) ~dst:f.ids.(2) (Ping 2);
  Sim.Engine.run f.engine;
  check_int "blocked across" 0 (List.length !(f.received.(1)));
  check_int "delivered within" 1 (List.length !(f.received.(2)));
  Network.heal f.network;
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 3);
  Sim.Engine.run f.engine;
  check_int "healed" 1 (List.length !(f.received.(1)))

let test_block_link_is_bidirectional_and_specific () =
  let f = make_fixture 3 in
  Network.block_link f.network f.ids.(0) f.ids.(1);
  check_bool "blocked" false (Network.reachable f.network f.ids.(0) f.ids.(1));
  check_bool "other links fine" true (Network.reachable f.network f.ids.(0) f.ids.(2));
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 1);
  Network.send f.network ~src:f.ids.(1) ~dst:f.ids.(0) (Ping 2);
  Network.send f.network ~src:f.ids.(2) ~dst:f.ids.(1) (Ping 3);
  Sim.Engine.run f.engine;
  check_int "0->1 dropped" 0 (List.length !(f.received.(1)) - 1);
  check_int "1->0 dropped" 0 (List.length !(f.received.(0)));
  check_bool "2->1 delivered" true (List.mem (2, 3) !(f.received.(1)));
  Network.unblock_link f.network f.ids.(1) f.ids.(0);
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 4);
  Sim.Engine.run f.engine;
  check_bool "restored" true (List.mem (0, 4) !(f.received.(1)))

let test_heal_clears_blocked_links () =
  let f = make_fixture 3 in
  (* [heal] must leave full connectivity whichever primitive installed the
     unreachability: a link-granular block, a partition, or both. *)
  Network.block_link f.network f.ids.(0) f.ids.(1);
  Network.partition f.network [ [ f.ids.(2) ] ];
  Network.heal f.network;
  check_bool "link unblocked by heal" true (Network.reachable f.network f.ids.(0) f.ids.(1));
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 1);
  Network.send f.network ~src:f.ids.(2) ~dst:f.ids.(0) (Ping 2);
  Sim.Engine.run f.engine;
  check_bool "across former block" true (List.mem (0, 1) !(f.received.(1)));
  check_bool "across former partition" true (List.mem (2, 2) !(f.received.(0)))

let test_partition_symmetry_and_implicit_group () =
  let f = make_fixture 4 in
  (* Nodes absent from every listed group form an implicit final group. *)
  Network.partition f.network [ [ f.ids.(0) ] ];
  for a = 0 to 3 do
    for b = 0 to 3 do
      check_bool
        (Printf.sprintf "reachability symmetric %d-%d" a b)
        (Network.reachable f.network f.ids.(b) f.ids.(a))
        (Network.reachable f.network f.ids.(a) f.ids.(b))
    done
  done;
  check_bool "implicit group intact" true (Network.reachable f.network f.ids.(2) f.ids.(3));
  check_bool "cut from implicit group" false (Network.reachable f.network f.ids.(0) f.ids.(3));
  check_bool "self reachable" true (Network.reachable f.network f.ids.(0) f.ids.(0))

let test_drop_window_is_deterministic () =
  let run seed =
    let f = make_fixture ~seed 2 in
    Network.set_drop f.network (Some 0.5);
    for v = 1 to 40 do
      Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping v)
    done;
    Sim.Engine.run f.engine;
    (List.rev !(f.received.(1)), Network.messages_dropped f.network)
  in
  let a = run 7L in
  Alcotest.(check (pair (list (pair int int)) int)) "same seed, same fates" a (run 7L);
  check_bool "window drops some" true (snd a > 0);
  check_bool "window passes some" true (fst a <> []);
  check_bool "different seed, different fates" true (a <> run 8L)

let test_set_drop_validates_and_reverts () =
  let f = make_fixture 2 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Network.set_drop: probability outside [0, 1]") (fun () ->
      Network.set_drop f.network (Some 1.5));
  Network.set_drop f.network (Some 1.);
  Alcotest.(check (float 0.)) "override in force" 1. (Network.drop_probability f.network);
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 1);
  Network.set_drop f.network None;
  Alcotest.(check (float 0.)) "reverted to config" Network.lan_config.Network.drop_probability
    (Network.drop_probability f.network);
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 2);
  Sim.Engine.run f.engine;
  Alcotest.(check (list (pair int int))) "only the lossless send arrives" [ (0, 2) ]
    !(f.received.(1))

let test_duplicate_next_delivers_twice () =
  let f = make_fixture 2 in
  Network.duplicate_next f.network f.ids.(1);
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 1);
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 2);
  Sim.Engine.run f.engine;
  (* The mark covers exactly one transmission: the first message arrives
     twice, the second once. *)
  check_int "three deliveries" 3 (List.length !(f.received.(1)));
  check_int "one duplicate scheduled" 1 (Network.messages_duplicated f.network);
  check_int "first message doubled" 2
    (List.length (List.filter (fun (_, v) -> v = 1) !(f.received.(1))));
  check_int "second message single" 1
    (List.length (List.filter (fun (_, v) -> v = 2) !(f.received.(1))))

let test_drop_probability_one_loses_everything () =
  let config = { Network.lan_config with drop_probability = 1. } in
  let f = make_fixture ~config 2 in
  for _ = 1 to 10 do
    Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 0)
  done;
  Sim.Engine.run f.engine;
  check_int "all dropped" 0 (List.length !(f.received.(1)));
  check_int "counted" 10 (Network.messages_dropped f.network)

let test_cpu_charge_delays_delivery () =
  let f = make_fixture ~cpus:true 2 in
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 1);
  Sim.Engine.run f.engine;
  (* send cpu 70us + transit 70us + receive cpu 70us *)
  check_int "three charges" 210 (Sim.Sim_time.to_us (Sim.Engine.now f.engine));
  check_int "delivered" 1 (List.length !(f.received.(1)))

type Message.payload += Other

let test_endpoint_dispatch_unknown_payload () =
  let f = make_fixture 2 in
  (* No handler matches [Other]; nothing should blow up. *)
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) Other;
  Sim.Engine.run f.engine;
  check_int "ping handler untouched" 0 (List.length !(f.received.(1)))

let test_endpoint_handler_priority () =
  let f = make_fixture 2 in
  let second = ref 0 in
  Endpoint.add_handler f.endpoints.(1) (fun m ->
      match m.Message.payload with
      | Ping _ ->
        incr second;
        true
      | _ -> false);
  Network.send f.network ~src:f.ids.(0) ~dst:f.ids.(1) (Ping 9);
  Sim.Engine.run f.engine;
  check_int "first handler consumed" 1 (List.length !(f.received.(1)));
  check_int "second never saw it" 0 !second

let test_duplicate_registration_rejected () =
  let f = make_fixture 1 in
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Network.register: N0 already registered") (fun () ->
      ignore (Endpoint.attach f.network ~id:f.ids.(0) ~process:f.processes.(0) ()))

let test_sparse_out_of_order_registration () =
  (* The node table is indexed by node index: registering 17, then 3, then
     40 must grow it without disturbing earlier entries, leave the holes
     unregistered, and still reject a repeat. *)
  let engine = Sim.Engine.create () in
  let network = Network.create engine Network.lan_config in
  let got = ref [] in
  let attach i =
    let id = node i in
    Network.register network ~id ~process:(Sim.Process.create engine ~name:(Node_id.label id))
      (fun m ->
        match m.Message.payload with
        | Ping v -> got := (i, Node_id.index m.Message.src, v) :: !got
        | _ -> ())
  in
  List.iter attach [ 17; 3; 40 ];
  Network.send network ~src:(node 3) ~dst:(node 40) (Ping 1);
  Network.send network ~src:(node 40) ~dst:(node 17) (Ping 2);
  Network.send network ~src:(node 17) ~dst:(node 3) (Ping 3);
  Network.send network ~src:(node 17) ~dst:(node 5) (Ping 4);
  Network.send network ~src:(node 3) ~dst:(node 99) (Ping 5);
  Sim.Engine.run engine;
  Alcotest.(check (list (triple int int int)))
    "registered nodes receive" [ (3, 17, 3); (17, 40, 2); (40, 3, 1) ]
    (List.sort compare !got);
  check_int "holes and unknown indices drop" 2 (Network.messages_dropped network);
  List.iter
    (fun i ->
      Alcotest.check_raises "duplicate id"
        (Invalid_argument (Printf.sprintf "Network.register: N%d already registered" i))
        (fun () -> attach i))
    [ 3; 17; 40 ];
  attach 5;
  Network.send network ~src:(node 40) ~dst:(node 5) (Ping 6);
  Sim.Engine.run engine;
  check_bool "a hole can still be filled" true (List.mem (5, 40, 6) !got)

(* ---- Property: one event per multicast delivers what one per copy did ---- *)

(* [Network.broadcast] delivers all surviving copies of a multicast in one
   event. The reference is what it replaced: one [Network.send] per
   destination, which schedules one event per copy, as the old per-copy
   transmit loop did. Senders have no CPU, so the sends are charged
   nothing and the two differ only in how copies are queued. A random
   program of broadcasts (destination lists with the sender and repeats)
   and sends runs next to loss windows, duplicate marks, partitions,
   heals, kills and restarts, all landing while copies are in flight, and
   receivers may react to a copy by killing a node or sending: the
   executed (time, receiver, sender, payload) sequence and the four
   counters must be equal, with and without receiver CPUs. Each step
   schedules the next either before or after it acts, so a step can run
   ahead of or behind the copies arriving at its instant. *)
type reaction = Quiet | Kill_on_receipt of int | Send_on_receipt of int

type Message.payload += Probe of int * reaction

type step =
  | Cast of int * int list * reaction
  | Unicast of int * int * reaction
  | Drop_window of float option
  | Duplicate of int
  | Cut of bool list
  | Heal
  | Kill of int
  | Restart of int

let program_senders = 2
let program_nodes = 6

let run_program ~cpus ~broadcast program =
  let engine = Sim.Engine.create ~seed:11L () in
  let network = Network.create engine Network.lan_config in
  let ids = Array.init program_nodes node in
  let processes =
    Array.map (fun id -> Sim.Process.create engine ~name:(Node_id.label id)) ids
  in
  let log = ref [] in
  Array.iteri
    (fun i id ->
      let cpu =
        if cpus && i >= program_senders then
          Some (Sim.Resource.create engine ~name:"cpu" ~servers:1)
        else None
      in
      Network.register network ~id ~process:processes.(i) ?cpu (fun m ->
          match m.Message.payload with
          | Probe (v, reaction) -> (
            log := (Sim.Sim_time.to_us (Sim.Engine.now engine), i, Node_id.index m.src, v) :: !log;
            match reaction with
            | Quiet -> ()
            | Kill_on_receipt k -> Sim.Process.kill processes.(k)
            | Send_on_receipt d -> Network.send network ~src:id ~dst:ids.(d) (Probe (-v, Quiet)))
          | _ -> ()))
    ids;
  let apply v = function
    | Cast (src, to_, reaction) ->
      broadcast network ~src:ids.(src) ~to_:(List.map (fun i -> ids.(i)) to_) (Probe (v, reaction))
    | Unicast (src, dst, reaction) ->
      Network.send network ~src:ids.(src) ~dst:ids.(dst) (Probe (v, reaction))
    | Drop_window p -> Network.set_drop network p
    | Duplicate d -> Network.duplicate_next network ids.(d)
    | Cut side ->
      let members keep =
        List.filteri (fun i _ -> Bool.equal (List.nth side i) keep) (Array.to_list ids)
      in
      Network.partition network [ members true; members false ]
    | Heal -> Network.heal network
    | Kill k -> Sim.Process.kill processes.(k)
    | Restart k -> Sim.Process.restart processes.(k)
  in
  let rec chain v = function
    | [] -> ()
    | (gap, ahead, step) :: rest ->
      let next () = chain (v + 1) rest in
      Sim.Engine.schedule engine ~delay:(Sim.Sim_time.span_us gap) (fun () ->
          if ahead then next ();
          apply v step;
          if not ahead then next ())
  in
  chain 1 program;
  Sim.Engine.run engine;
  ( List.rev !log,
    [
      Network.messages_sent network;
      Network.messages_delivered network;
      Network.messages_dropped network;
      Network.messages_duplicated network;
    ] )

let per_copy_broadcast network ~src ~to_ payload =
  List.iter (fun dst -> Network.send network ~src ~dst payload) to_

let prop_multicast_matches_per_copy_sends =
  let open QCheck2.Gen in
  let any_node = int_range 0 (program_nodes - 1) in
  let sender = int_range 0 (program_senders - 1) in
  let reaction =
    frequency
      [
        (6, pure Quiet);
        (1, map (fun k -> Kill_on_receipt k) any_node);
        (1, map (fun d -> Send_on_receipt d) any_node);
      ]
  in
  let step =
    frequency
      [
        ( 5,
          map3
            (fun s to_ r -> Cast (s, to_, r))
            sender
            (list_size (int_range 0 8) any_node)
            reaction );
        (2, map3 (fun s d r -> Unicast (s, d, r)) sender any_node reaction);
        (1, map (fun p -> Drop_window p) (opt (oneofl [ 0.3; 0.6; 1. ])));
        (2, map (fun d -> Duplicate d) any_node);
        (1, map (fun side -> Cut side) (list_repeat program_nodes bool));
        (1, pure Heal);
        (1, map (fun k -> Kill k) any_node);
        (1, map (fun k -> Restart k) any_node);
      ]
  in
  (* Gaps in whole and half transits (70 us), so steps, copies, duplicates
     and receive-CPU completions keep landing on the same instants. *)
  let gap = oneofl [ 0; 0; 35; 70; 70; 105; 140; 210 ] in
  QCheck2.Test.make ~name:"multicast delivers what per-copy sends delivered" ~count:300
    (list_size (int_range 1 40) (triple gap bool step))
    (fun program ->
      List.for_all
        (fun cpus ->
          run_program ~cpus ~broadcast:Network.broadcast program
          = run_program ~cpus ~broadcast:per_copy_broadcast program)
        [ false; true ])

let () =
  Alcotest.run "net"
    [
      ("node_id", [ Alcotest.test_case "basics" `Quick test_node_id_basics ]);
      ( "delivery",
        [
          Alcotest.test_case "send after transit" `Quick test_send_delivers_after_transit;
          Alcotest.test_case "broadcast" `Quick test_broadcast_reaches_all_listed;
          Alcotest.test_case "cpu charges" `Quick test_cpu_charge_delays_delivery;
          QCheck_alcotest.to_alcotest prop_multicast_matches_per_copy_sends;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crashed receiver" `Quick test_crashed_receiver_drops;
          Alcotest.test_case "crash during flight" `Quick test_crash_during_flight_drops;
          Alcotest.test_case "crashed sender" `Quick test_crashed_sender_noop;
          Alcotest.test_case "recovered receiver" `Quick test_recovered_receiver_gets_new_messages;
          Alcotest.test_case "partition and heal" `Quick test_partition_blocks_and_heals;
          Alcotest.test_case "single link failure" `Quick
            test_block_link_is_bidirectional_and_specific;
          Alcotest.test_case "full loss" `Quick test_drop_probability_one_loses_everything;
          Alcotest.test_case "heal clears blocked links" `Quick test_heal_clears_blocked_links;
          Alcotest.test_case "partition symmetry" `Quick
            test_partition_symmetry_and_implicit_group;
          Alcotest.test_case "drop window determinism" `Quick test_drop_window_is_deterministic;
          Alcotest.test_case "set_drop validation" `Quick test_set_drop_validates_and_reverts;
          Alcotest.test_case "duplicate next" `Quick test_duplicate_next_delivers_twice;
        ] );
      ( "endpoint",
        [
          Alcotest.test_case "unknown payload" `Quick test_endpoint_dispatch_unknown_payload;
          Alcotest.test_case "handler priority" `Quick test_endpoint_handler_priority;
          Alcotest.test_case "duplicate registration" `Quick test_duplicate_registration_rejected;
          Alcotest.test_case "sparse out-of-order registration" `Quick
            test_sparse_out_of_order_registration;
        ] );
    ]
