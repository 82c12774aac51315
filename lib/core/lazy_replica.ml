type mode = One_safe_mode | Zero_safe_mode

let mode_level = function One_safe_mode -> Safety.One_safe | Zero_safe_mode -> Safety.Zero_safe

type Net.Message.payload +=
  | Lazy_ws of {
      ws : Db.Transaction.writeset;
      started_at : Sim.Sim_time.t;
      committed_at : Sim.Sim_time.t;
    }

type t = {
  r : Replica.t;
  mode : mode;
  others : Net.Node_id.t list;
  (* Last locally-committed update of each item, as a (start, commit)
     interval — used to detect cross-site concurrent conflicts (§7). *)
  local_commits : (Sim.Sim_time.t * Sim.Sim_time.t) Analysis.Int_tbl.t;
  mutable cross_site_conflicts : int;
  c_ack_before_disk : Obs.Registry.counter;
  c_ack_after_disk : Obs.Registry.counter;
  c_propagations : Obs.Registry.counter;
  c_remote_applies : Obs.Registry.counter;
  h_execute : Obs.Histogram.t;  (* submit -> 2PL execution done *)
  h_flush : Obs.Histogram.t;  (* local commit -> decision record durable *)
  h_apply : Obs.Histogram.t;  (* origin commit -> remote apply (propagation lag) *)
}

let replica t = t.r
let db t = t.r.Replica.server.Server.db

let propagate t ws ~started_at =
  Obs.Registry.inc t.c_propagations;
  Replica.tr_tx t.r "propagate" ws.Db.Transaction.tx_id;
  Net.Endpoint.broadcast t.r.Replica.server.Server.endpoint ~to_:t.others
    (Lazy_ws { ws; started_at; committed_at = Replica.now t.r })

(* Remote application: install on arrival, no ordering, no certification —
   last writer wins, which is exactly why lazy replication can diverge. *)
let apply_remote t ws ~started_at ~committed_at =
  let tx = ws.Db.Transaction.tx_id in
  if not (Db.Testable_tx.already_processed t.r.Replica.view tx) then begin
    let db = db t in
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
      Replica.tr_tx t.r "cross_site_conflict" tx
    end;
    (* Propagation lag: how long the remote commit stayed invisible here. *)
    Replica.observe_phase t.r t.h_apply ~name:"apply" ~tx ~from_:committed_at
      ~until:(Replica.now t.r);
    Db.Db_engine.install_writes db writes;
    Db.Testable_tx.record t.r.Replica.view tx Db.Testable_tx.Committed;
    Db.Db_engine.log_commit_quiet db ~tx ~decision:Db.Certifier.Commit ~writes;
    Db.Db_engine.write_io db ~count:(List.length writes) ~factor:(Db.Db_engine.async_factor db)
      ~k:(fun () -> ());
    Obs.Registry.inc t.c_remote_applies;
    Replica.tr_tx t.r "apply" tx
  end

let finish_commit t tx ~started_at ~on_response =
  let db = db t in
  let id = tx.Db.Transaction.id in
  let commit_at = Replica.now t.r in
  let ws = Db.Transaction.to_writeset tx in
  let writes = ws.Db.Transaction.write_values in
  let count = List.length writes in
  Db.Db_engine.install_writes db writes;
  List.iter
    (fun (item, _) ->
      Analysis.Int_tbl.replace t.local_commits item (started_at, Replica.now t.r))
    writes;
  Db.Testable_tx.record t.r.Replica.view id Db.Testable_tx.Committed;
  let release () = Db.Lock_table.release_all (Db.Db_engine.locks db) ~tx:id in
  match t.mode with
  | Zero_safe_mode ->
    (* Answer before anything is durable. *)
    Obs.Registry.inc t.c_ack_before_disk;
    Replica.respond t.r id Db.Testable_tx.Committed on_response;
    Db.Db_engine.log_commit db ~tx:id ~decision:Db.Certifier.Commit ~writes
      ~k:
        (Replica.guard t.r (fun () ->
             Replica.observe_phase t.r t.h_flush ~name:"flush" ~tx:id ~from_:commit_at
               ~until:(Replica.now t.r);
             Replica.tr_tx t.r "logged" id));
    Db.Db_engine.write_io db ~count ~factor:(Db.Db_engine.async_factor db) ~k:(fun () -> ());
    release ();
    if writes <> [] then propagate t ws ~started_at
  | One_safe_mode ->
    (* Answer once the local writes and the decision record are on disk. *)
    let written = ref false and flushed = ref false in
    let maybe_finish () =
      if !written && !flushed then begin
        Obs.Registry.inc t.c_ack_after_disk;
        Replica.respond t.r id Db.Testable_tx.Committed on_response;
        release ();
        if writes <> [] then propagate t ws ~started_at
      end
    in
    Db.Db_engine.log_commit db ~tx:id ~decision:Db.Certifier.Commit ~writes
      ~k:
        (Replica.guard t.r (fun () ->
             Replica.observe_phase t.r t.h_flush ~name:"flush" ~tx:id ~from_:commit_at
               ~until:(Replica.now t.r);
             Replica.tr_tx t.r "logged" id;
             flushed := true;
             maybe_finish ()));
    Db.Db_engine.write_io db ~count ~factor:1.0
      ~k:
        (Replica.guard t.r (fun () ->
             written := true;
             maybe_finish ()))

let submit t tx ~on_response =
  if Replica.admit t.r tx ~on_response then begin
    let id = tx.Db.Transaction.id in
    let started_at = Replica.now t.r in
    Replica.execute_locked t.r tx ~k:(fun result ->
        Replica.observe_phase t.r t.h_execute ~name:"execute" ~tx:id ~from_:started_at
          ~until:(Replica.now t.r);
        match result with
        | `Deadlock ->
          Db.Lock_table.release_all (Db.Db_engine.locks (db t)) ~tx:id;
          Db.Testable_tx.record t.r.Replica.view id Db.Testable_tx.Aborted;
          Replica.respond t.r id Db.Testable_tx.Aborted on_response
        | `Done ->
          if Db.Transaction.is_update tx then finish_commit t tx ~started_at ~on_response
          else begin
            Db.Lock_table.release_all (Db.Db_engine.locks (db t)) ~tx:id;
            Replica.respond t.r id Db.Testable_tx.Committed on_response
          end)
  end

let create server ~group ~mode ~registry ~tracer ~trace =
  let self = Net.Endpoint.id server.Server.endpoint in
  let others = List.filter (fun n -> not (Net.Node_id.equal n self)) group in
  let t =
    {
      r = Replica.create server ~level:(mode_level mode) ~tracer ~trace;
      mode;
      others;
      local_commits = Analysis.Int_tbl.create 256;
      cross_site_conflicts = 0;
      c_ack_before_disk = Obs.Registry.counter registry "txn.ack_before_disk";
      c_ack_after_disk = Obs.Registry.counter registry "txn.ack_after_disk";
      c_propagations = Obs.Registry.counter registry "lazy.propagations";
      c_remote_applies = Obs.Registry.counter registry "lazy.remote_applies";
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
      Analysis.Int_tbl.reset t.local_commits);
  (* Lazy replication has no group to transfer state from: rebuild from the
     server's own log, and missed propagations stay missing. *)
  Sim.Process.on_restart server.Server.process (fun () ->
      Replica.recover_local t.r;
      Replica.tr t.r "recovered_local" [];
      t.r.Replica.ready <- true);
  t

let cross_site_conflicts t = t.cross_site_conflicts
