module Int_tbl = Analysis.Int_tbl

type Net.Message.payload +=
  | Tpc_prepare of { tx_id : Db.Transaction.id; writes : (int * int) list; coordinator : int }
  | Tpc_vote of { tx_id : Db.Transaction.id; yes : bool }
  | Tpc_decision of { tx_id : Db.Transaction.id; commit : bool; writes : (int * int) list }
  | Tpc_decision_req of { tx_id : Db.Transaction.id }

(* Durable prepare records: what a recovering participant finds and must
   resolve with the coordinator. *)
type prep_record = {
  p_tx : Db.Transaction.id;
  (* The durable prepare format must carry the write set even though
     recovery re-learns the writes from the coordinator's Tpc_decision:
     dropping it from the record would be an on-disk format change, not a
     cleanup. *)
  p_writes : (int * int) list; [@warning "-69"]
  p_coord : int;
}

type coord_state = {
  c_writes : (int * int) list;
  mutable c_votes : Net.Node_id.Set.t;
  mutable c_decided : bool;
  c_respond : Db.Testable_tx.outcome -> unit;
  c_started : Sim.Sim_time.t;  (* 2PC began (prepare-record force starts) *)
  mutable c_voting_from : Sim.Sim_time.t;  (* prepare durable, votes solicited *)
}

type t = {
  r : Replica.t;
  group : Net.Node_id.t list;
  others : Net.Node_id.t list;
  prepared_log : prep_record Store.Stable_storage.t;
  prepared : prep_record Int_tbl.t;  (* in doubt, by transaction id *)
  coordinating : coord_state Int_tbl.t;
  mutable vote_timeouts : int;
  mutable early_decision_broken : bool;  (* oracle-mutation hook; see mli *)
  c_prepares_sent : Obs.Registry.counter;
  c_votes : Obs.Registry.counter;
  c_ack_after_disk : Obs.Registry.counter;
  h_prepare_force : Obs.Histogram.t;  (* coordinator: 2PC start -> prepare durable *)
  h_vote_gather : Obs.Histogram.t;  (* coordinator: votes solicited -> decision *)
  h_decision_flush : Obs.Histogram.t;  (* coordinator: decision -> commit record durable *)
  h_participant_prepare : Obs.Histogram.t;  (* participant: prepare in -> vote out *)
}

(* A participant waits this long for its write locks before voting no; a
   coordinator this long for the votes before aborting. *)
let lock_timeout = Sim.Sim_time.span_ms 300.
let vote_timeout = Sim.Sim_time.span_s 1.

let replica t = t.r
let server t = t.r.Replica.server
let db t = (server t).Server.db
let locks t = Db.Db_engine.locks (db t)
let node_of_index t index = List.find (fun n -> Net.Node_id.index n = index) t.group
let send t dst payload = Net.Endpoint.send (server t).Server.endpoint ~dst payload

let record_outcome t tx outcome =
  if not (Db.Testable_tx.already_processed t.r.Replica.view tx) then begin
    Db.Testable_tx.record t.r.Replica.view tx outcome;
    Replica.tr_outcome t.r "decide" tx outcome
  end

(* ---- Coordinator ---- *)

let coordinator_decide t tx_id commit =
  match Int_tbl.find_opt t.coordinating tx_id with
  | None -> ()
  | Some c ->
    if not c.c_decided then begin
      c.c_decided <- true;
      Int_tbl.remove t.coordinating tx_id;
      Int_tbl.remove t.prepared tx_id;
      let decided_at = Replica.now t.r in
      Replica.observe_phase t.r t.h_vote_gather ~name:"votes" ~tx:tx_id ~from_:c.c_voting_from
        ~until:decided_at;
      let release () = Db.Lock_table.release_all (locks t) ~tx:tx_id in
      if commit then begin
        Db.Db_engine.install_writes (db t) c.c_writes;
        record_outcome t tx_id Db.Testable_tx.Committed;
        (* Force the decision record, then answer AND only then tell the
           participants: 2-safety's point is that the acknowledgement
           implies durable preparation everywhere and a durable decision
           here — and presumed abort is only sound if no participant can
           hold a commit decision this coordinator's recovery would deny.
           Sending before the flush let a crash in the window commit the
           transaction on the participants and abort it here. *)
        Db.Db_engine.log_commit (db t) ~tx:tx_id ~decision:Db.Certifier.Commit ~writes:c.c_writes
          ~k:
            (Replica.guard t.r (fun () ->
                 Replica.observe_phase t.r t.h_decision_flush ~name:"decision_flush" ~tx:tx_id
                   ~from_:decided_at ~until:(Replica.now t.r);
                 Obs.Registry.inc t.c_ack_after_disk;
                 Replica.respond t.r tx_id Db.Testable_tx.Committed c.c_respond;
                 List.iter
                   (fun p -> send t p (Tpc_decision { tx_id; commit = true; writes = c.c_writes }))
                   t.others));
        Db.Db_engine.write_io (db t) ~count:(List.length c.c_writes) ~factor:1.0 ~k:(fun () -> ());
        release ()
      end
      else begin
        record_outcome t tx_id Db.Testable_tx.Aborted;
        Db.Db_engine.log_commit_quiet (db t) ~tx:tx_id ~decision:Db.Certifier.Abort ~writes:[];
        Replica.respond t.r tx_id Db.Testable_tx.Aborted c.c_respond;
        List.iter (fun p -> send t p (Tpc_decision { tx_id; commit = false; writes = [] })) t.others;
        release ()
      end
    end

let start_two_phase_commit t tx ~on_response =
  let tx_id = tx.Db.Transaction.id in
  let writes = Db.Transaction.writes tx in
  let started_at = Replica.now t.r in
  let c =
    {
      c_writes = writes;
      c_votes = Net.Node_id.Set.empty;
      c_decided = false;
      c_respond = on_response;
      c_started = started_at;
      c_voting_from = started_at;
    }
  in
  Int_tbl.replace t.coordinating tx_id c;
  (* Force the coordinator's own prepare record, then solicit votes. *)
  let self = (server t).Server.index in
  Store.Stable_storage.append t.prepared_log { p_tx = tx_id; p_writes = writes; p_coord = self }
    ~on_durable:
      (Replica.guard t.r (fun () ->
           Replica.observe_phase t.r t.h_prepare_force ~name:"prepare_force" ~tx:tx_id
             ~from_:c.c_started ~until:(Replica.now t.r);
           c.c_voting_from <- Replica.now t.r;
           Obs.Registry.inc t.c_prepares_sent;
           List.iter (fun p -> send t p (Tpc_prepare { tx_id; writes; coordinator = self })) t.others));
  Sim.Process.after (server t).Server.process vote_timeout (fun () ->
      match Int_tbl.find_opt t.coordinating tx_id with
      | Some c when not c.c_decided ->
        t.vote_timeouts <- t.vote_timeouts + 1;
        Replica.tr_tx t.r "vote_timeout" tx_id;
        coordinator_decide t tx_id false
      | Some _ | None -> ())

let handle_vote t src tx_id yes =
  Obs.Registry.inc t.c_votes;
  match Int_tbl.find_opt t.coordinating tx_id with
  | None -> ()
  | Some c ->
    if not c.c_decided then begin
      if not yes then coordinator_decide t tx_id false
      else begin
        c.c_votes <- Net.Node_id.Set.add src c.c_votes;
        if List.for_all (fun p -> Net.Node_id.Set.mem p c.c_votes) t.others then
          coordinator_decide t tx_id true
      end
    end

(* ---- Participant ---- *)

let apply_decision t tx_id commit writes =
  Int_tbl.remove t.prepared tx_id;
  if commit then begin
    Db.Db_engine.install_writes (db t) writes;
    record_outcome t tx_id Db.Testable_tx.Committed;
    Db.Db_engine.log_commit_quiet (db t) ~tx:tx_id ~decision:Db.Certifier.Commit ~writes;
    Db.Db_engine.write_io (db t) ~count:(List.length writes)
      ~factor:(Db.Db_engine.async_factor (db t))
      ~k:(fun () -> ())
  end
  else begin
    record_outcome t tx_id Db.Testable_tx.Aborted;
    Db.Db_engine.log_commit_quiet (db t) ~tx:tx_id ~decision:Db.Certifier.Abort ~writes:[]
  end;
  Db.Lock_table.release_all (locks t) ~tx:tx_id

let handle_prepare t tx_id writes coordinator =
  if Replica.serving t.r && not (Db.Testable_tx.already_processed t.r.Replica.view tx_id) then begin
    let prepare_in = Replica.now t.r in
    let coord_node = node_of_index t coordinator in
    let items = List.map fst writes in
    let granted_all = ref false in
    let abandoned = ref false in
    let vote_no () =
      if not !abandoned then begin
        abandoned := true;
        Db.Lock_table.release_all (locks t) ~tx:tx_id;
        send t coord_node (Tpc_vote { tx_id; yes = false })
      end
    in
    (* Waiting too long for locks means a (possibly distributed) deadlock:
       vote no and let the coordinator abort. *)
    Sim.Process.after (server t).Server.process lock_timeout (fun () ->
        if (not !granted_all) && not !abandoned then vote_no ());
    let rec acquire = function
      | [] ->
        granted_all := true;
        if (not !abandoned) && not (Db.Testable_tx.already_processed t.r.Replica.view tx_id)
        then begin
          let record = { p_tx = tx_id; p_writes = writes; p_coord = coordinator } in
          Int_tbl.replace t.prepared tx_id record;
          Store.Stable_storage.append t.prepared_log record
            ~on_durable:
              (Replica.guard t.r (fun () ->
                   if Int_tbl.mem t.prepared tx_id then begin
                     Replica.observe_phase t.r t.h_participant_prepare ~name:"participant_prepare"
                       ~tx:tx_id ~from_:prepare_in ~until:(Replica.now t.r);
                     send t coord_node (Tpc_vote { tx_id; yes = true })
                   end))
        end
      | item :: rest -> begin
          match
            Db.Lock_table.acquire (locks t) ~tx:tx_id ~item ~mode:Db.Lock_table.Exclusive
              ~granted:(Replica.guard t.r (fun () -> if not !abandoned then acquire rest))
          with
          | `Ok -> ()
          | `Deadlock -> vote_no ()
        end
    in
    acquire items
  end

let handle_decision t tx_id commit writes =
  if not (Db.Testable_tx.already_processed t.r.Replica.view tx_id) then
    apply_decision t tx_id commit writes
  else Int_tbl.remove t.prepared tx_id

let handle_decision_req t src tx_id =
  match Db.Testable_tx.find t.r.Replica.view tx_id with
  | Some Db.Testable_tx.Committed when t.early_decision_broken ->
    (* Mutated (pre-fix) behaviour: answer from the in-memory view before
       the commit record is durable, with whatever writes we have — none.
       The requester then commits the transaction without its writes and
       discards the real decision as a duplicate. *)
    send t src (Tpc_decision { tx_id; commit = true; writes = [] })
  | Some Db.Testable_tx.Committed -> begin
      (* Answer commits from the durable WAL only: between deciding and
         forcing the commit record, the write set is not yet on disk, and
         replying with an empty write set would let the requester commit
         the transaction without its writes (and ignore the real decision
         as a duplicate). Staying silent is safe — the requester polls
         again, and the record is durable by the time we respond to the
         client. *)
      match
        List.find_opt (fun r -> r.Db.Db_engine.w_tx = tx_id) (Db.Db_engine.wal_records (db t))
      with
      | Some r ->
        send t src (Tpc_decision { tx_id; commit = true; writes = r.Db.Db_engine.w_writes })
      | None -> ()
    end
  | Some Db.Testable_tx.Aborted -> send t src (Tpc_decision { tx_id; commit = false; writes = [] })
  | None -> () (* still undecided here; the requester retries *)

(* ---- Client-facing execution ---- *)

let submit t tx ~on_response =
  if Replica.admit t.r tx ~on_response then begin
    let id = tx.Db.Transaction.id in
    Replica.execute_locked t.r tx ~k:(fun result ->
        match result with
        | `Deadlock ->
          Db.Lock_table.release_all (locks t) ~tx:id;
          record_outcome t id Db.Testable_tx.Aborted;
          Replica.respond t.r id Db.Testable_tx.Aborted on_response
        | `Done ->
          if Db.Transaction.is_update tx then start_two_phase_commit t tx ~on_response
          else begin
            Db.Lock_table.release_all (locks t) ~tx:id;
            Replica.respond t.r id Db.Testable_tx.Committed on_response
          end)
  end

(* ---- Recovery ---- *)

let resolve_in_doubt t =
  Int_tbl.iter_sorted
    (fun tx_id record -> send t (node_of_index t record.p_coord) (Tpc_decision_req { tx_id }))
    t.prepared

let rec recover t =
  Replica.recover_local t.r;
  Int_tbl.reset t.prepared;
  (* Re-discover in-doubt transactions: durably prepared, no decision on
     disk. Transactions this server itself coordinated are resolved by
     presumed abort (the crash interrupted the vote); the rest stay blocked
     until their coordinator answers. *)
  let self = (server t).Server.index in
  List.iter
    (fun record ->
      if not (Db.Testable_tx.already_processed t.r.Replica.view record.p_tx) then begin
        if record.p_coord = self then begin
          record_outcome t record.p_tx Db.Testable_tx.Aborted;
          Db.Db_engine.log_commit_quiet (db t) ~tx:record.p_tx ~decision:Db.Certifier.Abort
            ~writes:[];
          List.iter
            (fun p -> send t p (Tpc_decision { tx_id = record.p_tx; commit = false; writes = [] }))
            t.others
        end
        else begin
          Int_tbl.replace t.prepared record.p_tx record;
          Replica.tr_tx t.r "in_doubt" record.p_tx
        end
      end)
    (Store.Stable_storage.durable_records t.prepared_log);
  t.r.Replica.ready <- true;
  resolve_in_doubt t;
  arm_in_doubt_retry t

and arm_in_doubt_retry t =
  Sim.Process.periodic (server t).Server.process ~every:(Sim.Sim_time.span_ms 500.) (fun () ->
      if Int_tbl.length t.prepared > 0 then resolve_in_doubt t)

let create server ~group ~registry ~tracer ~trace =
  let self = Net.Endpoint.id server.Server.endpoint in
  let group = List.sort Net.Node_id.compare group in
  let others = List.filter (fun n -> not (Net.Node_id.equal n self)) group in
  let engine = Db.Db_engine.engine server.Server.db in
  let config = Db.Db_engine.config server.Server.db in
  let rng = Sim.Rng.split server.Server.rng in
  let prepared_log =
    Store.Stable_storage.create engine
      ~name:(Server.label server ^ ".2pc")
      ~disk:server.Server.disks
      ~write_time:(fun () ->
        Sim.Rng.uniform_span rng config.Db.Db_engine.io_time_min config.Db.Db_engine.io_time_max)
      ()
  in
  let t =
    {
      r = Replica.create server ~level:Safety.Two_safe ~tracer ~trace;
      group;
      others;
      prepared_log;
      prepared = Int_tbl.create 64;
      coordinating = Int_tbl.create 64;
      vote_timeouts = 0;
      early_decision_broken = false;
      c_prepares_sent = Obs.Registry.counter registry "2pc.prepares_sent";
      c_votes = Obs.Registry.counter registry "2pc.votes";
      c_ack_after_disk = Obs.Registry.counter registry "txn.ack_after_disk";
      h_prepare_force = Obs.Registry.histogram registry "2pc.prepare_force_us";
      h_vote_gather = Obs.Registry.histogram registry "2pc.vote_gather_us";
      h_decision_flush = Obs.Registry.histogram registry "2pc.decision_flush_us";
      h_participant_prepare = Obs.Registry.histogram registry "2pc.participant_prepare_us";
    }
  in
  Net.Endpoint.add_handler server.Server.endpoint (fun message ->
      let src = message.Net.Message.src in
      match message.Net.Message.payload with
      | Tpc_prepare { tx_id; writes; coordinator } ->
        handle_prepare t tx_id writes coordinator;
        true
      | Tpc_vote { tx_id; yes } ->
        handle_vote t src tx_id yes;
        true
      | Tpc_decision { tx_id; commit; writes } ->
        handle_decision t tx_id commit writes;
        true
      | Tpc_decision_req { tx_id } ->
        handle_decision_req t src tx_id;
        true
      | _ -> false);
  Sim.Process.on_kill server.Server.process (fun () ->
      Store.Stable_storage.crash prepared_log;
      Int_tbl.reset t.coordinating;
      Int_tbl.reset t.prepared);
  Sim.Process.on_restart server.Server.process (fun () -> recover t);
  (* A participant whose decision message is lost on the wire must not stay
     in-doubt forever: poll the coordinator while anything is prepared but
     undecided, crash or no crash. *)
  arm_in_doubt_retry t;
  t

let vote_timeouts t = t.vote_timeouts
let in_doubt t = Int_tbl.length t.prepared
let break_early_decision t = t.early_decision_broken <- true
