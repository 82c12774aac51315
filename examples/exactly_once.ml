(* Exactly-once: a client whose reply is lost on the wire.

   The client submits over the network; the delegate commits the
   transaction, but the link back to the client fails, so the reply never
   arrives. The client times out and retries the same transaction at the
   next server - which recognises the id through the testable-transaction
   table (paper 2.2) and answers from the recorded outcome instead of
   executing twice.

     dune exec examples/exactly_once.exe *)

open Groupsafe

let sec = Sim.Sim_time.span_s
let ms = Sim.Sim_time.span_ms

let params =
  { Workload.Params.table4 with Workload.Params.servers = 3; items = 100 }

let () =
  let sys = System.create ~params (System.Dsm Dsm_replica.Group_safe_mode) in
  let client = Client.create sys ~index:0 ~retry_timeout:(ms 400.) () in

  (* A payment that must not happen twice: set account 9 to 50. One
     certification commit is the proof of exactly-once. *)
  let payment = Db.Transaction.make ~id:1 ~client:0 [ Db.Op.Read 9; Db.Op.Write (9, 50) ] in

  Client.submit client ~delegate:0 payment ~on_outcome:(fun outcome ->
      Format.printf "[%a] client heard: %s (attempts: %d, retries: %d)@." Sim.Sim_time.pp
        (System.now sys)
        (match outcome with
        | Client.Replied Db.Testable_tx.Committed -> "committed"
        | Client.Replied Db.Testable_tx.Aborted -> "aborted"
        | Client.Gave_up -> "gave up")
        (1 + Client.retries client) (Client.retries client));

  (* Sabotage: 2 ms in, the link between the client and S0 fails. The
     request already arrived; the reply (due ~10 ms) will be dropped. *)
  Sim.Engine.schedule (System.engine sys) ~delay:(ms 2.) (fun () ->
      Format.printf "[%a] link client<->S0 fails; the reply will be lost@." Sim.Sim_time.pp
        (System.now sys);
      Net.Network.block_link (System.network sys) (Client.node_id client)
        (System.server_id sys 0));

  System.run_for sys (sec 5.);

  (match System.dsm_replica sys 1 with
   | Some r ->
     Format.printf "certifier on S1 counted %d commit(s) for the payment@."
       (Db.Certifier.commits (Dsm_replica.certifier r))
   | None -> ());
  List.iter
    (fun s ->
      Format.printf "S%d: account 9 = %d, payment committed: %b@." s
        (System.values_of sys ~server:s).(9)
        (System.committed_on sys ~server:s 1))
    [ 0; 1; 2 ]
