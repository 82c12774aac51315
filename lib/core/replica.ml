type t = {
  server : Server.t;
  view : Db.Testable_tx.t;
  mutable ready : bool;
  trace : Sim.Trace.t;
  tracer : Obs.Tracer.t;
  source : string;
  mutable cat : string;
}

let create server ~level ~tracer ~trace =
  let t =
    {
      server;
      view = Db.Testable_tx.create ();
      ready = true;
      trace;
      tracer;
      source = Server.label server;
      cat = Safety.to_string level;
    }
  in
  Sim.Process.on_kill server.Server.process (fun () ->
      t.ready <- false;
      Db.Testable_tx.reset t.view);
  t

let serving t = Sim.Process.alive t.server.Server.process && t.ready
let now t = Sim.Engine.now (Db.Db_engine.engine t.server.Server.db)
let guard t k = Sim.Process.guard t.server.Server.process k

(* ---- Step recorders ---- *)

let tr t kind attrs = Sim.Trace.record t.trace ~source:t.source ~kind attrs

(* Per-transaction entries: their attribute strings are built only when the
   trace records. *)
let tr_tx t kind tx = Sim.Trace.record_tx t.trace ~source:t.source ~kind tx

let tr_outcome t kind tx outcome =
  Sim.Trace.record_tx_outcome t.trace ~source:t.source ~kind tx
    ~outcome:(Db.Testable_tx.outcome_to_string outcome)

let respond t tx outcome k =
  tr_outcome t "respond" tx outcome;
  k outcome

(* Every technique records its phases in this one shape, so Chrome traces
   of different techniques line up side by side. *)
let observe_phase t h ~name ~tx ~from_ ~until =
  let dur = Sim.Sim_time.diff until from_ in
  Obs.Histogram.add h (Sim.Sim_time.span_to_us dur);
  Obs.Tracer.complete_tx t.tracer ~name ~cat:t.cat ~tid:t.server.Server.index ~ts:from_ ~dur tx

(* ---- Delegate side ---- *)

let admit t tx ~on_response =
  serving t
  &&
  let id = tx.Db.Transaction.id in
  let db = t.server.Server.db in
  if Db.Transaction.is_update tx && Db.Db_engine.disk_full db then begin
    (* Graceful degradation under a full disk: refuse new update work with
       a distinct abort instead of wedging the commit path. *)
    tr_tx t "disk_full_abort" id;
    Db.Db_engine.note_degraded db;
    on_response Db.Testable_tx.Aborted;
    false
  end
  else begin
    tr_tx t "submit" id;
    true
  end

(* A crash replaces the lock table; the continuations of the old
   incarnation are guarded, so reading the table once is enough. *)
let execute_locked t tx ~k =
  let db = t.server.Server.db in
  let locks = Db.Db_engine.locks db in
  let id = tx.Db.Transaction.id in
  let rec step = function
    | [] -> k `Done
    | op :: rest ->
      let item = Db.Op.item op in
      let mode = if Db.Op.is_write op then Db.Lock_table.Exclusive else Db.Lock_table.Shared in
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

(* ---- Recovery and inspection ---- *)

let recover_local t =
  let db = t.server.Server.db in
  (match Db.Db_engine.last_repair db with
   | Some { Db.Db_engine.repairs = _ :: _ as repairs; _ } ->
     tr t "wal_repair" [ ("repairs", string_of_int (List.length repairs)) ]
   | Some _ | None -> ());
  Db.Testable_tx.thaw t.view (Db.Testable_tx.freeze (Db.Db_engine.testable db))

let committed t id =
  match Db.Testable_tx.find t.view id with
  | Some Db.Testable_tx.Committed -> true
  | Some Db.Testable_tx.Aborted | None -> false
