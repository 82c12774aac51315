(* Renders one fixed fault scenario under every replication technique for
   the golden-file test: 3 servers, seed 7, obs tracing on, samplers every
   25 ms, 14 staggered transactions (reads, and updates on overlapping
   items), server 2 crashed at 150 ms and recovered at 400 ms, server 1's
   disk full from 200 to 300 ms. For each technique it prints the protocol
   trace, the Chrome trace, the metrics JSON, each server's committed ids
   and the client acks, so every replica's recorded steps are pinned byte
   for byte (promote with `dune promote` after a reviewed instrumentation
   or protocol change). *)

open Groupsafe

let params =
  {
    Workload.Params.table4 with
    Workload.Params.servers = 3;
    items = 500;
    hot_fraction = 0.;
    hot_items = 0;
  }

let n_tx = 14
let tx_id i = 2000 + i

(* Every fourth transaction only reads; the others read one item and write
   two, drawn from a pool of seven items so concurrent updates collide. *)
let tx i =
  let ops =
    if i mod 4 = 3 then [ Db.Op.Read (i mod 5); Db.Op.Read (5 + (i mod 3)) ]
    else [ Db.Op.Read (i mod 5); Db.Op.Write (i mod 4, i); Db.Op.Write (4 + (i mod 3), 1) ]
  in
  Db.Transaction.make ~id:(tx_id i) ~client:(i mod 3) ops

(* (instant in ms, action), in time order; equal instants keep list order. *)
let timeline =
  let submits =
    List.init n_tx (fun i -> (30 * i, fun sys -> System.submit sys ~delegate:(i mod 3) (tx i)))
  in
  let faults =
    [
      (150, fun sys -> System.crash sys 2);
      (200, fun sys -> System.set_disk_full sys 1 true);
      (300, fun sys -> System.set_disk_full sys 1 false);
      (400, fun sys -> System.recover sys 2);
    ]
  in
  List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (submits @ faults)

let run technique =
  let sys = System.create ~seed:7L ~params ~obs_trace:true technique in
  System.attach_obs_samplers ~every:(Sim.Sim_time.span_ms 25.) sys;
  let clock = ref 0 in
  List.iter
    (fun (at, act) ->
      if at > !clock then begin
        System.run_for sys (Sim.Sim_time.span_ms (float_of_int (at - !clock)));
        clock := at
      end;
      act sys)
    timeline;
  System.run_for sys (Sim.Sim_time.span_s 2.);
  let name = System.technique_name technique in
  Printf.printf "=== %s ===\n--- trace ---\n%s" name (Sim.Trace.render (System.trace sys));
  Printf.printf "--- chrome trace ---\n%s\n"
    (Obs.Chrome_trace.to_string
       [ { Obs.Chrome_trace.pid = 0; name; events = Obs.Tracer.events (System.obs_tracer sys) } ]);
  Printf.printf "--- metrics ---\n%s\n"
    (Obs.Export.to_json [ { Obs.Export.name; registry = System.obs_registry sys } ]);
  print_string "--- committed ---\n";
  for server = 0 to System.n_servers sys - 1 do
    let ids =
      List.filter (fun id -> System.committed_on sys ~server id) (List.init n_tx tx_id)
    in
    Printf.printf "S%d:%s\n" server (String.concat "" (List.map (Printf.sprintf " %d") ids))
  done;
  print_string "--- acks ---\n";
  List.iter
    (fun (a : System.ack) ->
      Printf.printf "T%d %s at %dus%s\n" a.System.tx
        (Db.Testable_tx.outcome_to_string a.System.outcome)
        (Sim.Sim_time.to_us a.System.at)
        (if a.System.update then " update" else ""))
    (System.acked sys)

let () = List.iter run System.all_techniques
