type technique = Dsm of Dsm_replica.mode | Lazy of Lazy_replica.mode | Two_pc

let technique_level = function
  | Dsm m -> Dsm_replica.mode_level m
  | Lazy m -> Lazy_replica.mode_level m
  | Two_pc -> Safety.Two_safe

let technique_name = function
  | Two_pc -> "eager-2pc"
  | (Dsm _ | Lazy _) as t -> Safety.to_string (technique_level t)

let all_techniques =
  [
    Lazy Lazy_replica.Zero_safe_mode;
    Lazy Lazy_replica.One_safe_mode;
    Dsm Dsm_replica.Group_safe_mode;
    Dsm Dsm_replica.Group_one_safe_mode;
    Dsm Dsm_replica.Two_safe_mode;
    Dsm Dsm_replica.Very_safe_mode;
    Two_pc;
  ]

let technique_of_level = function
  | Safety.Zero_safe -> Lazy Lazy_replica.Zero_safe_mode
  | Safety.One_safe -> Lazy Lazy_replica.One_safe_mode
  | Safety.Group_safe -> Dsm Dsm_replica.Group_safe_mode
  | Safety.Group_one_safe -> Dsm Dsm_replica.Group_one_safe_mode
  | Safety.Two_safe -> Dsm Dsm_replica.Two_safe_mode
  | Safety.Very_safe -> Dsm Dsm_replica.Very_safe_mode

type replica = Dsm_r of Dsm_replica.t | Lazy_r of Lazy_replica.t | Tpc_r of Twopc_replica.t

type ack = {
  tx : Db.Transaction.id;
  outcome : Db.Testable_tx.outcome;
  at : Sim.Sim_time.t;
  submitted_at : Sim.Sim_time.t;
  update : bool;
}

type submission = {
  sub_tx : Db.Transaction.id;
  sub_at : Sim.Sim_time.t;
  sub_delegate : int;
  sub_delegate_serving : bool;
}

(* What the books hold per transaction id: its first submission, and
   whether a client has been answered for it. *)
type entry = { first : submission; mutable answered : bool }

type t = {
  engine : Sim.Engine.t;
  network : Net.Network.t;
  params : Workload.Params.t;
  trace : Sim.Trace.t;
  technique : technique;
  servers : Server.t array;
  replicas : replica array;
  cores : Replica.t array;  (* each replica's per-server half *)
  mutable acked_rev : ack list;
  mutable subs_rev : submission list;
  by_id : entry Analysis.Int_tbl.t;
  crashes : Sim.Sim_time.t list ref array;
  recoveries : Sim.Sim_time.t list ref array;
  mutable max_simultaneously_down : int;
  mutable currently_down : int;
  obs_registry : Obs.Registry.t;
  obs_tracer : Obs.Tracer.t;
  c_submitted : Obs.Registry.counter;
  c_committed : Obs.Registry.counter;
  c_aborted : Obs.Registry.counter;
  h_commit_us : Obs.Histogram.t;
  h_abort_us : Obs.Histogram.t;
}

let engine t = t.engine
let network t = t.network
let params t = t.params
let trace t = t.trace
let technique t = t.technique
let level t = technique_level t.technique
let n_servers t = Array.length t.servers
let obs_registry t = t.obs_registry
let obs_tracer t = t.obs_tracer

let serving t i = Replica.serving t.cores.(i)

let alive t i = Server.alive t.servers.(i)

let submit t ?on_response ~delegate tx =
  Obs.Registry.inc t.c_submitted;
  let submitted_at = Sim.Engine.now t.engine in
  (* First submission of each id wins: a client retry of a decided tx must
     not resurrect it as "undecided" in the liveness oracle's books. *)
  let entry =
    match Analysis.Int_tbl.find_opt t.by_id tx.Db.Transaction.id with
    | Some entry -> entry
    | None ->
      let first =
        {
          sub_tx = tx.Db.Transaction.id;
          sub_at = submitted_at;
          sub_delegate = delegate;
          sub_delegate_serving = serving t delegate;
        }
      in
      let entry = { first; answered = false } in
      Analysis.Int_tbl.replace t.by_id tx.Db.Transaction.id entry;
      t.subs_rev <- first :: t.subs_rev;
      entry
  in
  let respond outcome =
    (* Retried transactions answer at most once into the books. *)
    if not entry.answered then begin
      let acked_at = Sim.Engine.now t.engine in
      entry.answered <- true;
      t.acked_rev <-
        {
          tx = tx.Db.Transaction.id;
          outcome;
          at = acked_at;
          submitted_at;
          update = Db.Transaction.is_update tx;
        }
        :: t.acked_rev;
      let latency = Sim.Sim_time.diff acked_at submitted_at in
      if Obs.Tracer.enabled t.obs_tracer then
        Obs.Tracer.complete t.obs_tracer ~name:"txn"
          ~cat:(technique_name t.technique)
          ~tid:delegate ~ts:submitted_at ~dur:latency
          ~args:
            [
              ("tx", string_of_int tx.Db.Transaction.id);
              ("outcome", Db.Testable_tx.outcome_to_string outcome);
            ]
          ();
      match outcome with
      | Db.Testable_tx.Committed ->
        Obs.Registry.inc t.c_committed;
        Obs.Histogram.add t.h_commit_us (Sim.Sim_time.span_to_us latency)
      | Db.Testable_tx.Aborted ->
        Obs.Registry.inc t.c_aborted;
        Obs.Histogram.add t.h_abort_us (Sim.Sim_time.span_to_us latency)
    end;
    match on_response with Some k -> k outcome | None -> ()
  in
  match t.replicas.(delegate) with
  | Dsm_r r -> Dsm_replica.submit r tx ~on_response:respond
  | Lazy_r r -> Lazy_replica.submit r tx ~on_response:respond
  | Tpc_r r -> Twopc_replica.submit r tx ~on_response:respond

let server_id t i = t.servers.(i).Server.id

let partition t groups =
  Sim.Trace.record t.trace ~source:"net" ~kind:"partition"
    [
      ( "groups",
        String.concat "|"
          (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups) );
    ];
  Net.Network.partition t.network
    (List.map (List.map (fun i -> t.servers.(i).Server.id)) groups)

let heal t =
  Sim.Trace.record t.trace ~source:"net" ~kind:"heal" [];
  Net.Network.heal t.network

let set_drop t p =
  Sim.Trace.record t.trace ~source:"net" ~kind:"drop_window"
    [ ("prob", match p with Some p -> Printf.sprintf "%.3f" p | None -> "off") ];
  Net.Network.set_drop t.network p

let duplicate_next t i =
  Sim.Trace.record t.trace ~source:"net" ~kind:"duplicate_next"
    [ ("server", string_of_int i) ];
  Net.Network.duplicate_next t.network t.servers.(i).Server.id

(* Server-side frontend: answer client requests over the network. *)
let attach_frontends t =
  Array.iteri
    (fun i server ->
      Net.Endpoint.add_handler server.Server.endpoint (fun message ->
          match message.Net.Message.payload with
          | Client_protocol.Client_request { tx } ->
            let client = message.Net.Message.src in
            submit t ~delegate:i
              ~on_response:(fun outcome ->
                Net.Endpoint.send server.Server.endpoint ~dst:client
                  (Client_protocol.Client_reply { tx_id = tx.Db.Transaction.id; outcome }))
              tx;
            true
          | _ -> false))
    t.servers

let create ?(seed = 1L) ?(params = Workload.Params.table4) ?fd_config ?apply_write_factor
    ?uniform ?tuning ?(trace_enabled = true) ?(obs_trace = false)
    ?(delivery_delay = fun _ -> None) technique =
  let engine = Sim.Engine.create ~seed () in
  let net_config =
    {
      Net.Network.transit = params.Workload.Params.network_transit;
      cpu_per_op = params.Workload.Params.cpu_per_net_op;
      drop_probability = params.Workload.Params.drop_probability;
    }
  in
  let network = Net.Network.create engine net_config in
  let trace = Sim.Trace.create ~enabled:trace_enabled engine in
  let n = params.Workload.Params.servers in
  (* One registry and one tracer per system: all replicas (and their
     database engines, hence creation before the servers) share them, so
     per-server observations of the same metric aggregate (tracer spans
     stay distinguishable through their tid = server index). *)
  let obs_registry = Obs.Registry.create () in
  let obs_tracer = Obs.Tracer.create ~enabled:obs_trace () in
  let servers =
    Array.init n (fun index -> Server.create ~registry:obs_registry engine network params ~index)
  in
  let group = Array.to_list (Array.map (fun s -> s.Server.id) servers) in
  let replicas =
    Array.mapi
      (fun index server ->
        match technique with
        | Dsm mode ->
          Dsm_r
            (Dsm_replica.create server ~group ~mode ?fd_config ?apply_write_factor ?uniform
               ?tuning ?delivery_delay:(delivery_delay index) ~registry:obs_registry
               ~tracer:obs_tracer ~trace ())
        | Lazy mode ->
          Lazy_r
            (Lazy_replica.create server ~group ~mode ~registry:obs_registry ~tracer:obs_tracer
               ~trace)
        | Two_pc ->
          Tpc_r
            (Twopc_replica.create server ~group ~registry:obs_registry ~tracer:obs_tracer ~trace))
      servers
  in
  let t = {
    engine;
    network;
    params;
    trace;
    technique;
    servers;
    replicas;
    cores =
      Array.map
        (function
          | Dsm_r r -> Dsm_replica.replica r
          | Lazy_r r -> Lazy_replica.replica r
          | Tpc_r r -> Twopc_replica.replica r)
        replicas;
    acked_rev = [];
    subs_rev = [];
    by_id = Analysis.Int_tbl.create 1024;
    crashes = Array.init n (fun _ -> ref []);
    recoveries = Array.init n (fun _ -> ref []);
    max_simultaneously_down = 0;
    currently_down = 0;
    obs_registry;
    obs_tracer;
    c_submitted = Obs.Registry.counter obs_registry "txn.submitted";
    c_committed = Obs.Registry.counter obs_registry "txn.committed";
    c_aborted = Obs.Registry.counter obs_registry "txn.aborted";
    h_commit_us = Obs.Registry.histogram obs_registry "txn.commit_us";
    h_abort_us = Obs.Registry.histogram obs_registry "txn.abort_us";
  }
  in
  attach_frontends t;
  t

(* Queue-depth / utilisation sampling for every server's CPU and disk.
   Metric names are shared across servers, so the samples aggregate into
   one system-wide distribution per resource kind. Sampler ticks read but
   never mutate simulation state, so results are unchanged. *)
let attach_obs_samplers ?(every = Sim.Sim_time.span_ms 100.) t =
  Array.iter
    (fun server ->
      Obs.Sampler.attach t.engine ~registry:t.obs_registry ~name:"res.cpu" ~every
        server.Server.cpus;
      Obs.Sampler.attach t.engine ~registry:t.obs_registry ~name:"res.disk" ~every
        server.Server.disks)
    t.servers


let run_for t span = Sim.Engine.run ~until:(Sim.Sim_time.add (Sim.Engine.now t.engine) span) t.engine
let now t = Sim.Engine.now t.engine

let crash t i =
  if Server.alive t.servers.(i) then begin
    Sim.Trace.record t.trace ~source:(Server.label t.servers.(i)) ~kind:"crash" [];
    t.crashes.(i) := Sim.Engine.now t.engine :: !(t.crashes.(i));
    t.currently_down <- t.currently_down + 1;
    if t.currently_down > t.max_simultaneously_down then
      t.max_simultaneously_down <- t.currently_down;
    Server.crash t.servers.(i)
  end

let recover t i =
  if not (Server.alive t.servers.(i)) then begin
    Sim.Trace.record t.trace ~source:(Server.label t.servers.(i)) ~kind:"recover" [];
    t.recoveries.(i) := Sim.Engine.now t.engine :: !(t.recoveries.(i));
    t.currently_down <- t.currently_down - 1;
    Server.restart t.servers.(i)
  end

let submitted t = Obs.Registry.counter_value t.obs_registry "txn.submitted"
let acked t = List.rev t.acked_rev
let submissions t = List.rev t.subs_rev

let submission_of t id =
  match Analysis.Int_tbl.find_opt t.by_id id with Some e -> Some e.first | None -> None

let acked_id t id =
  match Analysis.Int_tbl.find_opt t.by_id id with Some e -> e.answered | None -> false

let has_ordering_layer t =
  match t.technique with Dsm _ -> true | Lazy _ | Two_pc -> false

let leaders t =
  let out = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | Dsm_r r -> if serving t i && Dsm_replica.is_leading r then out := i :: !out
      | Lazy_r _ | Tpc_r _ -> ())
    t.replicas;
  List.rev !out

let committed_on t ~server id = Replica.committed t.cores.(server) id

let values_of t ~server = Db.Db_engine.values t.servers.(server).Server.db

let history t i =
  {
    Gcs.Process_class.crashes = List.rev !(t.crashes.(i));
    recoveries = List.rev !(t.recoveries.(i));
    up_at_end = Server.alive t.servers.(i);
  }

let group_failed t =
  t.max_simultaneously_down >= Gcs.View.quorum (Array.length t.servers)

let storage_fault_kind = function
  | Db.Db_engine.Wipe_wal_at_crash -> "amnesia"
  | Db.Db_engine.Torn_write -> "torn_write"
  | Db.Db_engine.Fsync_lie -> "fsync_lie"
  | Db.Db_engine.Corrupt_record -> "corrupt_record"

let inject_storage_fault t i fault =
  let server = t.servers.(i) in
  Sim.Trace.record t.trace ~source:(Server.label server) ~kind:(storage_fault_kind fault) [];
  Db.Db_engine.inject server.Server.db fault

let break_amnesiac t i = inject_storage_fault t i Db.Db_engine.Wipe_wal_at_crash

let set_disk_slow t i factor =
  let server = t.servers.(i) in
  Sim.Trace.record t.trace ~source:(Server.label server) ~kind:"slow_disk"
    [ ("factor", Printf.sprintf "%.3f" factor) ];
  Db.Db_engine.set_disk_slow server.Server.db factor

let set_disk_full t i full =
  let server = t.servers.(i) in
  Sim.Trace.record t.trace ~source:(Server.label server) ~kind:"disk_full"
    [ ("full", if full then "on" else "off") ];
  Db.Db_engine.set_disk_full server.Server.db full

let break_skip_checksum t i =
  let server = t.servers.(i) in
  Sim.Trace.record t.trace ~source:(Server.label server) ~kind:"skip_checksum" [];
  Db.Db_engine.break_skip_checksum server.Server.db

let storage_faults t i = Db.Db_engine.fault_stats t.servers.(i).Server.db
let last_repair t i = Db.Db_engine.last_repair t.servers.(i).Server.db

let break_no_accept_retransmit t i =
  match t.replicas.(i) with
  | Dsm_r r ->
    Sim.Trace.record t.trace ~source:(Server.label t.servers.(i)) ~kind:"no_accept_retransmit" [];
    Dsm_replica.break_no_accept_retransmit r
  | Lazy_r _ | Tpc_r _ -> ()

let break_early_decision t i =
  match t.replicas.(i) with
  | Tpc_r r ->
    Sim.Trace.record t.trace ~source:(Server.label t.servers.(i)) ~kind:"early_decision" [];
    Twopc_replica.break_early_decision r
  | Dsm_r _ | Lazy_r _ -> ()

let dsm_replica t i = match t.replicas.(i) with Dsm_r r -> Some r | Lazy_r _ | Tpc_r _ -> None
let lazy_replica t i = match t.replicas.(i) with Lazy_r r -> Some r | Dsm_r _ | Tpc_r _ -> None
let twopc_replica t i = match t.replicas.(i) with Tpc_r r -> Some r | Dsm_r _ | Lazy_r _ -> None

let set_dsm_mode t mode =
  Array.iter
    (function Dsm_r r -> Dsm_replica.set_mode r mode | Lazy_r _ | Tpc_r _ -> ())
    t.replicas
