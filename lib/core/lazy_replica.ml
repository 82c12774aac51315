type mode = One_safe_mode | Zero_safe_mode

let mode_level = function One_safe_mode -> Safety.One_safe | Zero_safe_mode -> Safety.Zero_safe

type Net.Message.payload +=
  | Lazy_ws of {
      ws : Db.Transaction.writeset;
      started_at : Sim.Sim_time.t;
      committed_at : Sim.Sim_time.t;
    }

type t = {
  server : Server.t;
  mode : mode;
  trace : Sim.Trace.t;
  others : Net.Node_id.t list;
  view : Db.Testable_tx.t;
  (* Last locally-committed update of each item, as a (start, commit)
     interval — used to detect cross-site concurrent conflicts (§7). *)
  local_commits : (Sim.Sim_time.t * Sim.Sim_time.t) Analysis.Int_tbl.t;
  mutable ready : bool;
  mutable deadlock_aborts : int;
  mutable cross_site_conflicts : int;
  c_ack_before_disk : Obs.Registry.counter;
  c_ack_after_disk : Obs.Registry.counter;
  c_propagations : Obs.Registry.counter;
  c_remote_applies : Obs.Registry.counter;
  o_tracer : Obs.Tracer.t;
  h_execute : Obs.Histogram.t;  (* submit -> 2PL execution done *)
  h_flush : Obs.Histogram.t;  (* local commit -> decision record durable *)
  h_apply : Obs.Histogram.t;  (* origin commit -> remote apply (propagation lag) *)
}

let tr t kind attrs = Sim.Trace.record t.trace ~source:(Server.label t.server) ~kind attrs
let guard t k = Sim.Process.guard t.server.Server.process k

(* Per-transaction entries: their attribute strings are built only when the
   trace records. *)
let tr_tx t kind tx = Sim.Trace.record_tx t.trace ~source:(Server.label t.server) ~kind tx

let respond t tx outcome ~on_response =
  Sim.Trace.record_tx_outcome t.trace ~source:(Server.label t.server) ~kind:"respond" tx
    ~outcome:(Db.Testable_tx.outcome_to_string outcome);
  on_response outcome

let now t = Sim.Engine.now (Db.Db_engine.engine t.server.Server.db)

(* Record one lifecycle phase [from_, until) into its histogram and, when
   tracing, as a complete span on this server's track — the same shape
   Dsm_replica gives its phases, so lazy and group-safe Chrome traces line
   up side by side. *)
let observe_phase t h ~name ~tx ~from_ ~until =
  let dur = Sim.Sim_time.diff until from_ in
  Obs.Histogram.add h (Sim.Sim_time.span_to_us dur);
  Obs.Tracer.complete_tx t.o_tracer ~name
    ~cat:(Safety.to_string (mode_level t.mode))
    ~tid:t.server.Server.index ~ts:from_ ~dur tx

let propagate t ws ~started_at =
  Obs.Registry.inc t.c_propagations;
  tr_tx t "propagate" ws.Db.Transaction.tx_id;
  Net.Endpoint.broadcast t.server.Server.endpoint ~to_:t.others
    (Lazy_ws { ws; started_at; committed_at = now t })

(* Remote application: install on arrival, no ordering, no certification —
   last writer wins, which is exactly why lazy replication can diverge. *)
let apply_remote t ws ~started_at ~committed_at =
  let tx = ws.Db.Transaction.tx_id in
  if not (Db.Testable_tx.already_processed t.view tx) then begin
    let db = t.server.Server.db in
    let writes = ws.Db.Transaction.write_values in
    (* §7 hazard: this remote update ran concurrently with a local update
       of the same item — neither site saw the other. *)
    let conflicting (item, _) =
      match Analysis.Int_tbl.find_opt t.local_commits item with
      | Some (local_start, local_commit) ->
        Sim.Sim_time.(started_at < local_commit) && Sim.Sim_time.(local_start < committed_at)
      | None -> false
    in
    if List.exists conflicting writes then begin
      t.cross_site_conflicts <- t.cross_site_conflicts + 1;
      tr_tx t "cross_site_conflict" tx
    end;
    (* Propagation lag: how long the remote commit stayed invisible here. *)
    observe_phase t t.h_apply ~name:"apply" ~tx ~from_:committed_at ~until:(now t);
    Db.Db_engine.install_writes db writes;
    Db.Testable_tx.record t.view tx Db.Testable_tx.Committed;
    Db.Testable_tx.record (Db.Db_engine.testable db) tx Db.Testable_tx.Committed;
    Db.Db_engine.log_commit_quiet db ~tx ~decision:Db.Certifier.Commit ~writes;
    Db.Db_engine.write_io db ~count:(List.length writes) ~factor:(Db.Db_engine.async_factor db)
      ~k:(fun () -> ());
    Obs.Registry.inc t.c_remote_applies;
    tr_tx t "apply" tx
  end

let serving t = Sim.Process.alive t.server.Server.process && t.ready

(* Execute operations in program order under strict 2PL. The continuation
   receives [`Done] or [`Deadlock]. *)
let execute_ops t tx ~k =
  let db = t.server.Server.db in
  let locks = Db.Db_engine.locks db in
  let id = tx.Db.Transaction.id in
  let rec step ops =
    match ops with
    | [] -> k `Done
    | op :: rest ->
      let item = Db.Op.item op in
      let mode =
        if Db.Op.is_write op then Db.Lock_table.Exclusive else Db.Lock_table.Shared
      in
      let continue () =
        match op with
        | Db.Op.Read _ -> Db.Db_engine.read db ~item ~k:(fun _ -> step rest)
        | Db.Op.Write _ -> step rest
      in
      (match Db.Lock_table.acquire locks ~tx:id ~item ~mode ~granted:(guard t continue) with
       | `Ok -> ()
       | `Deadlock -> k `Deadlock)
  in
  step tx.Db.Transaction.ops

let finish_commit t tx ~started_at ~on_response =
  let db = t.server.Server.db in
  let id = tx.Db.Transaction.id in
  let commit_at = now t in
  let ws = Db.Transaction.to_writeset tx in
  let writes = ws.Db.Transaction.write_values in
  let count = List.length writes in
  Db.Db_engine.install_writes db writes;
  List.iter
    (fun (item, _) -> Analysis.Int_tbl.replace t.local_commits item (started_at, now t))
    writes;
  Db.Testable_tx.record t.view id Db.Testable_tx.Committed;
  Db.Testable_tx.record (Db.Db_engine.testable db) id Db.Testable_tx.Committed;
  let release () = Db.Lock_table.release_all (Db.Db_engine.locks db) ~tx:id in
  match t.mode with
  | Zero_safe_mode ->
    (* Answer before anything is durable. *)
    Obs.Registry.inc t.c_ack_before_disk;
    respond t id Db.Testable_tx.Committed ~on_response;
    Db.Db_engine.log_commit db ~tx:id ~decision:Db.Certifier.Commit ~writes
      ~k:
        (guard t (fun () ->
             observe_phase t t.h_flush ~name:"flush" ~tx:id ~from_:commit_at ~until:(now t);
             tr_tx t "logged" id));
    Db.Db_engine.write_io db ~count ~factor:(Db.Db_engine.async_factor db) ~k:(fun () -> ());
    release ();
    if writes <> [] then propagate t ws ~started_at
  | One_safe_mode ->
    (* Answer once the local writes and the decision record are on disk. *)
    let written = ref false and flushed = ref false in
    let maybe_finish () =
      if !written && !flushed then begin
        Obs.Registry.inc t.c_ack_after_disk;
        respond t id Db.Testable_tx.Committed ~on_response;
        release ();
        if writes <> [] then propagate t ws ~started_at
      end
    in
    Db.Db_engine.log_commit db ~tx:id ~decision:Db.Certifier.Commit ~writes
      ~k:
        (guard t (fun () ->
             observe_phase t t.h_flush ~name:"flush" ~tx:id ~from_:commit_at ~until:(now t);
             tr_tx t "logged" id;
             flushed := true;
             maybe_finish ()));
    Db.Db_engine.write_io db ~count ~factor:1.0
      ~k:
        (guard t (fun () ->
             written := true;
             maybe_finish ()))

let submit t tx ~on_response =
  if serving t then begin
    let id = tx.Db.Transaction.id in
    if Db.Transaction.is_update tx && Db.Db_engine.disk_full t.server.Server.db then begin
      (* Graceful degradation under a full disk: refuse new update work
         with a distinct abort; reads and remote propagation continue. *)
      tr_tx t "disk_full_abort" id;
      Db.Db_engine.note_degraded t.server.Server.db;
      on_response Db.Testable_tx.Aborted
    end
    else begin
    tr_tx t "submit" id;
    let started_at = now t in
    execute_ops t tx ~k:(fun result ->
        observe_phase t t.h_execute ~name:"execute" ~tx:id ~from_:started_at ~until:(now t);
        match result with
        | `Deadlock ->
          t.deadlock_aborts <- t.deadlock_aborts + 1;
          Db.Lock_table.release_all (Db.Db_engine.locks t.server.Server.db) ~tx:id;
          Db.Testable_tx.record t.view id Db.Testable_tx.Aborted;
          respond t id Db.Testable_tx.Aborted ~on_response
        | `Done ->
          if Db.Transaction.is_update tx then finish_commit t tx ~started_at ~on_response
          else begin
            Db.Lock_table.release_all (Db.Db_engine.locks t.server.Server.db) ~tx:id;
            respond t id Db.Testable_tx.Committed ~on_response
          end)
    end
  end

let recover t =
  let report = Db.Db_engine.recover_now t.server.Server.db in
  if report.Db.Db_engine.repairs <> [] then
    tr t "wal_repair" [ ("repairs", string_of_int (List.length report.Db.Db_engine.repairs)) ];
  Db.Testable_tx.thaw t.view (Db.Testable_tx.freeze (Db.Db_engine.testable t.server.Server.db));
  tr t "recovered_local" [];
  t.ready <- true

let create server ~group ~mode ~registry ~tracer ~trace =
  let self = Net.Endpoint.id server.Server.endpoint in
  let others = List.filter (fun n -> not (Net.Node_id.equal n self)) group in
  let t =
    {
      server;
      mode;
      trace;
      others;
      view = Db.Testable_tx.create ();
      local_commits = Analysis.Int_tbl.create 256;
      ready = true;
      deadlock_aborts = 0;
      cross_site_conflicts = 0;
      c_ack_before_disk = Obs.Registry.counter registry "txn.ack_before_disk";
      c_ack_after_disk = Obs.Registry.counter registry "txn.ack_after_disk";
      c_propagations = Obs.Registry.counter registry "lazy.propagations";
      c_remote_applies = Obs.Registry.counter registry "lazy.remote_applies";
      o_tracer = tracer;
      h_execute = Obs.Registry.histogram registry "phase.execute_us";
      h_flush = Obs.Registry.histogram registry "phase.flush_us";
      h_apply = Obs.Registry.histogram registry "lazy.propagation_us";
    }
  in
  Net.Endpoint.add_handler server.Server.endpoint (fun message ->
      match message.Net.Message.payload with
      | Lazy_ws { ws; started_at; committed_at } ->
        apply_remote t ws ~started_at ~committed_at;
        true
      | _ -> false);
  Sim.Process.on_kill server.Server.process (fun () ->
      t.ready <- false;
      Analysis.Int_tbl.reset t.local_commits;
      Db.Testable_tx.reset t.view);
  Sim.Process.on_restart server.Server.process (fun () -> recover t);
  t

let committed t id =
  match Db.Testable_tx.find t.view id with
  | Some Db.Testable_tx.Committed -> true
  | Some Db.Testable_tx.Aborted | None -> false

let committed_count t = Db.Testable_tx.committed_count t.view
let deadlock_aborts t = t.deadlock_aborts
let cross_site_conflicts t = t.cross_site_conflicts
