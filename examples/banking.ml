(* Banking: account transfers on a replicated database, with a group
   failure in the middle.

   Accounts are items; a transfer reads both accounts and writes both
   balances. We run the same story twice — once on 1-safe lazy replication
   and once on the 2-safe technique — and compare what survives a crash of
   every server right after the client was told "transfer done".

     dune exec examples/banking.exe *)

open Groupsafe

let sec = Sim.Sim_time.span_s
let accounts = 100
let initial_balance = 1000

let params =
  { Workload.Params.table4 with Workload.Params.servers = 3; items = accounts }

let transfer ~id ~from_ ~to_ ~amount ~balances =
  let from_balance = balances.(from_) - amount and to_balance = balances.(to_) + amount in
  balances.(from_) <- from_balance;
  balances.(to_) <- to_balance;
  Db.Transaction.make ~id ~client:0
    [
      Db.Op.Read from_;
      Db.Op.Read to_;
      Db.Op.Write (from_, from_balance);
      Db.Op.Write (to_, to_balance);
    ]

let story technique_name technique =
  Format.printf "@.=== %s ===@." technique_name;
  let sys = System.create ~params technique in
  (* Balances as the clients believe them; transfers write absolute values,
     so the replicas converge to this ledger. *)
  let balances = Array.make accounts initial_balance in

  (* A first transfer settles normally. *)
  System.submit sys ~delegate:0
    ~on_response:(fun _ -> Format.printf "transfer T1 (acc0 -> acc1, 100) acknowledged@.")
    (transfer ~id:1 ~from_:0 ~to_:1 ~amount:100 ~balances);
  System.run_for sys (sec 2.);

  (* The second transfer is acknowledged and then the whole bank loses
     power. *)
  System.submit sys ~delegate:1
    ~on_response:(fun _ ->
      Format.printf "transfer T2 (acc2 -> acc3, 250) acknowledged... and every server crashes@.";
      ignore
        (Sim.Engine.schedule (System.engine sys) ~delay:(Sim.Sim_time.span_ms 1.5) (fun () ->
             for i = 0 to 2 do
               System.crash sys i
             done)))
    (transfer ~id:2 ~from_:2 ~to_:3 ~amount:250 ~balances);
  System.run_for sys (sec 2.);
  for i = 0 to 2 do
    System.recover sys i
  done;
  System.run_for sys (sec 5.);

  let report = Safety_checker.analyse sys in
  Format.printf "after recovery (expected acc2=%d acc3=%d):@." (initial_balance - 250)
    (initial_balance + 250);
  for s = 0 to 2 do
    let v = System.values_of sys ~server:s in
    Format.printf "  S%d: acc2=%d acc3=%d@." s v.(2) v.(3)
  done;
  Format.printf "checker: %d acknowledged, %d lost, %d divergent items@."
    report.Safety_checker.acked_commits
    (List.length report.Safety_checker.lost)
    report.Safety_checker.divergent_items;
  if report.Safety_checker.lost <> [] then
    Format.printf "=> the bank told the customer the transfer happened, then forgot it.@."
  else if report.Safety_checker.divergent_items > 0 then
    Format.printf
      "=> the transfer survives only on the delegate's disk; the branches disagree until@.\
      \   someone reconciles them by hand.@."
  else Format.printf "=> every acknowledged transfer survived the blackout, on every replica.@."

let () =
  story "lazy 1-safe replication" (System.Lazy Lazy_replica.One_safe_mode);
  story "2-safe replication (end-to-end atomic broadcast)" (System.Dsm Dsm_replica.Two_safe_mode)
