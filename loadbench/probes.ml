(* Layer probes: Bechamel micro-benchmarks of one layer's unit of work, run
   by the traced pass. Five repeat `bench/main.exe`'s fixtures of the same
   name (same set-up, same OLS estimate) so their numbers line up with the
   BENCH_PR*.json trajectory; [net_send] and [log_round] are new — the net
   and bare-log probes the trajectory lacked. *)

open Bechamel
open Toolkit

let event_queue () =
  let q = Sim.Event_queue.create () in
  let i = ref 0 in
  Test.make ~name:"sim.ns_per_event"
    (Staged.stage (fun () ->
         incr i;
         Sim.Event_queue.add q ~time:(Sim.Sim_time.of_us (!i land 0xffff)) !i;
         ignore (Sim.Event_queue.pop q)))

type Net.Message.payload += Probe_ping

(* One point-to-point message on the Table 4 LAN, send to delivery. *)
let net_send () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine Net.Network.lan_config in
  let node i =
    let id = Net.Node_id.make ~index:i ~label:(Printf.sprintf "P%d" i) in
    (id, Sim.Process.create engine ~name:(Net.Node_id.label id))
  in
  let a, pa = node 0 and b, pb = node 1 in
  let delivered = ref 0 in
  Net.Network.register network ~id:a ~process:pa (fun _ -> ());
  Net.Network.register network ~id:b ~process:pb (fun m ->
      match m.Net.Message.payload with Probe_ping -> incr delivered | _ -> ());
  Test.make ~name:"net.ns_per_msg"
    (Staged.stage (fun () ->
         let target = !delivered + 1 in
         Net.Network.send network ~src:a ~dst:b Probe_ping;
         while !delivered < target do
           if not (Sim.Engine.step engine) then failwith "net probe: queue empty"
         done))

module Log = Gcs.Replicated_log.Make (struct
  type t = int

  let equal = Int.equal
  let pp = Format.pp_print_int
end)

(* One accept round of a bare volatile 3-member log, no abcast facade:
   propose at the settled leader, step until the leader learns the slot. *)
let log_round () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine Net.Network.lan_config in
  let ids = List.init 3 (fun i -> Net.Node_id.make ~index:i ~label:(Printf.sprintf "L%d" i)) in
  let members =
    List.map
      (fun id ->
        let process = Sim.Process.create engine ~name:(Net.Node_id.label id) in
        let ep = Net.Endpoint.attach network ~id ~process () in
        Log.create ep ~group:ids ~mode:Log.Volatile ())
      ids
  in
  let leader = List.hd members in
  let decided = ref 0 in
  Log.on_decide leader (fun ~slot:_ vs -> decided := !decided + List.length vs);
  Sim.Engine.run ~until:(Sim.Sim_time.of_us 200_000) engine;
  if not (Log.is_leading leader) then failwith "log probe: member 0 did not take the lead";
  let v = ref 0 in
  Test.make ~name:"gcs.ns_per_round"
    (Staged.stage (fun () ->
         let target = !decided + 1 in
         incr v;
         Log.propose leader !v;
         while !decided < target do
           if not (Sim.Engine.step engine) then failwith "log probe: queue empty"
         done))

let certifier () =
  let c = Db.Certifier.create () in
  let i = ref 0 in
  Test.make ~name:"db.ns_per_certify"
    (Staged.stage (fun () ->
         incr i;
         let ws =
           {
             Db.Transaction.tx_id = !i;
             ws_client = 0;
             read_items = [ !i land 1023; (!i + 7) land 1023 ];
             write_values = [ ((!i + 13) land 1023, !i) ];
           }
         in
         ignore (Db.Certifier.certify c ~start:(Db.Certifier.current_version c) ~ws)))

let lock_table () =
  let lt = Db.Lock_table.create () in
  let i = ref 0 in
  Test.make ~name:"db.ns_per_lock"
    (Staged.stage (fun () ->
         incr i;
         ignore
           (Db.Lock_table.acquire lt ~tx:!i ~item:(!i land 255) ~mode:Db.Lock_table.Exclusive
              ~granted:(fun () -> ()));
         Db.Lock_table.release_all lt ~tx:!i))

let wal_frame () =
  let i = ref 0 in
  Test.make ~name:"db.ns_per_wal_frame"
    (Staged.stage (fun () ->
         incr i;
         let frame =
           Db.Wal_codec.encode ~seq:!i ~tx:!i ~decision:Db.Certifier.Commit
             ~writes:[ (!i land 1023, !i); ((!i + 7) land 1023, !i) ]
         in
         ignore (Db.Wal_codec.decode frame)))

(* One complete transaction, submit to client response, on a small
   group-safe system. *)
let transaction () =
  let params =
    {
      Workload.Params.table4 with
      Workload.Params.servers = 3;
      items = 1000;
      hot_fraction = 0.;
      hot_items = 0;
    }
  in
  let sys =
    Groupsafe.System.create ~params ~trace_enabled:false
      (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode)
  in
  let engine = Groupsafe.System.engine sys in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let generator = Workload.Generator.create params rng in
  Groupsafe.System.run_for sys (Sim.Sim_time.span_ms 100.);
  Test.make ~name:"core.ns_per_txn"
    (Staged.stage (fun () ->
         let responded = ref false in
         Groupsafe.System.submit sys ~delegate:(Sim.Rng.int rng 3)
           ~on_response:(fun _ -> responded := true)
           (Workload.Generator.next generator ~client:0);
         while not !responded do
           if not (Sim.Engine.step engine) then failwith "transaction probe: queue empty"
         done))

(* [(metric name, ns per run)] for every probe; [quota_s] is Bechamel's
   time budget per probe. *)
let run ~quota_s =
  let tests =
    Test.make_grouped ~name:"probe"
      [ event_queue (); net_send (); log_round (); certifier (); lock_table (); wal_frame (); transaction () ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols (List.hd instances) raw in
  Analysis.Det_tbl.fold ~cmp:String.compare
    (fun name r acc ->
      match Analyze.OLS.estimates r with
      | Some (e :: _) ->
        (* Grouped names read "probe/<metric>". *)
        let metric =
          match String.index_opt name '/' with
          | Some i -> String.sub name (i + 1) (String.length name - i - 1)
          | None -> name
        in
        (metric, e) :: acc
      | Some [] | None -> acc)
    results []
