type mode = Group_safe_mode | Group_one_safe_mode | Two_safe_mode | Very_safe_mode

let mode_level = function
  | Group_safe_mode -> Safety.Group_safe
  | Group_one_safe_mode -> Safety.Group_one_safe
  | Two_safe_mode -> Safety.Two_safe
  | Very_safe_mode -> Safety.Very_safe

(* Classical atomic broadcast serves the group-safe pair; the durable
   end-to-end broadcast serves the 2-safe pair. Runtime switching (paper
   §5.2) is possible within a family: the broadcast stack is shared. *)
let broadcast_family = function
  | Group_safe_mode | Group_one_safe_mode -> `Classical
  | Two_safe_mode | Very_safe_mode -> `End_to_end

(* What gets broadcast: the writeset, the delegate's certification snapshot
   (meaningful on every server because all certifiers see the same decided
   sequence) and the delegate's index for response routing. *)
module Cert_ws = struct
  type t = { ws : Db.Transaction.writeset; start : int; delegate : int }

  let equal a b = Int.equal a.ws.Db.Transaction.tx_id b.ws.Db.Transaction.tx_id
  let pp ppf v = Format.fprintf ppf "T%d@S%d" v.ws.Db.Transaction.tx_id v.delegate
end

(* State-transfer checkpoint: database values, the replica's committed view
   and the certification state — everything a joiner needs to continue the
   deterministic processing exactly where the donor stands. *)
module Snapshot = struct
  type t = {
    values : Db.Db_engine.snapshot;
    view : Db.Testable_tx.frozen;
    cert : Db.Certifier.frozen;
    pending : cert_ws list;
        (** writesets the donor had delivered but not yet processed — the
            joiner must process them itself, or a transaction that was only
            in a pipeline at snapshot time could vanish from the group. *)
  }
  and cert_ws = Cert_ws.t
end

module Abcast = Gcs.Atomic_broadcast.Make (Cert_ws) (Snapshot)
module E2e = Gcs.E2e_broadcast.Make (Cert_ws)
module Int_tbl = Analysis.Int_tbl

type Net.Message.payload +=
  | Logged of { tx : Db.Transaction.id; origin : int }
  | Logged_query of { tx : Db.Transaction.id }
        (** delegate asking a peer to re-announce durability: the one-shot
            [Logged] ack can be lost to a drop window, and a commit waiting
            on it would otherwise wedge forever. *)

type bcast = Classical of Abcast.t | End_to_end of E2e.t

type pending = { cws : Cert_ws.t; token : E2e.token option; enq_at : Sim.Sim_time.t }

(* Observability handles, resolved once at construction. [bcast_at] holds,
   per transaction this replica delegated, the instant its writeset was
   handed to the broadcast — consumed when the writeset comes back ordered,
   giving the broadcast-phase span. Keyed lookups only (never iterated), so
   it cannot leak enumeration order anywhere. *)
type obs_state = {
  h_read : Obs.Histogram.t;  (* submit -> read phase done (delegate) *)
  h_abcast : Obs.Histogram.t;  (* broadcast -> ordered delivery (delegate) *)
  h_certify : Obs.Histogram.t;  (* delivery -> certification decision *)
  h_wal : Obs.Histogram.t;  (* decision -> commit record durable *)
  c_ack_before_disk : Obs.Registry.counter;  (* commit acks sent before WAL flush *)
  c_ack_after_disk : Obs.Registry.counter;  (* commit acks gated on the disk *)
  bcast_at : Sim.Sim_time.t Int_tbl.t;
}

type waiting_2safe = { mutable acks : Net.Node_id.Set.t }

type t = {
  r : Replica.t;
  mutable mode : mode;
  group : Net.Node_id.t list;
  cert : Db.Certifier.t;
  pending_responses : (Db.Testable_tx.outcome -> unit) Int_tbl.t;
  waiting_2safe : waiting_2safe Int_tbl.t;
  logged_local : unit Int_tbl.t;
      (* transactions this replica has durably logged (2-safe family);
         volatile cache of the WAL, rebuilt from it on restart. Keyed
         lookups only. *)
  mutable ack_poll_armed : bool;  (* a [Logged_query] sweep is scheduled *)
  pipe : pending Queue.t;
  mutable pipe_busy : bool;
  mutable current : pending option;  (* popped from [pipe], still processing *)
  mutable bcast : bcast option;
  apply_write_factor : float;
  certify_cpu : Sim.Sim_time.span;
  obs : obs_state;
}

let replica t = t.r
let server t = t.r.Replica.server

let outcome_of = function
  | Db.Certifier.Commit -> Db.Testable_tx.Committed
  | Db.Certifier.Abort -> Db.Testable_tx.Aborted

(* Only the delegate holds the client's continuation; elsewhere this is a
   no-op. *)
let respond_pending t tx outcome =
  match Int_tbl.find_opt t.pending_responses tx with
  | None -> ()
  | Some k ->
    Int_tbl.remove t.pending_responses tx;
    Replica.respond t.r tx outcome k

let broadcast_cws t cws =
  match t.bcast with
  | Some (Classical a) -> Abcast.broadcast a cws
  | Some (End_to_end e) -> E2e.broadcast e cws
  | None -> ()

let ack_token t token = match (t.bcast, token) with
  | Some (End_to_end e), Some tok -> E2e.ack e tok
  | Some (End_to_end _), None | Some (Classical _), _ | None, _ -> ()

let is_leading t =
  match t.bcast with
  | Some (Classical a) -> Abcast.is_leading a
  | Some (End_to_end e) -> E2e.is_leading e
  | None -> false

let break_no_accept_retransmit t =
  match t.bcast with
  | Some (Classical a) -> Abcast.break_no_accept_retransmit a
  | Some (End_to_end e) -> E2e.break_no_accept_retransmit e
  | None -> ()

let node_of_index t index = List.find (fun n -> Net.Node_id.index n = index) t.group

(* ---- 2-safe response rule: answer once every available server logged ---- *)

let check_2safe_responses t =
  match t.bcast with
  | None | Some (Classical _) -> ()
  | Some (End_to_end e2e) ->
    (* 2-safe: logged on every *available* server (the trusted set of the
       broadcast's detector). Very safe: logged on every server, available
       or not — one crash blocks commits until the crashed server recovers
       and its replayed delivery is logged. *)
    let required =
      match t.mode with
      | Very_safe_mode -> t.group
      | Two_safe_mode | Group_safe_mode | Group_one_safe_mode ->
        Gcs.Failure_detector.trusted (E2e.detector e2e)
    in
    let ready_txs =
      Int_tbl.fold_sorted
        (fun tx w acc ->
          if List.for_all (fun n -> Net.Node_id.Set.mem n w.acks) required then tx :: acc else acc)
        t.waiting_2safe []
    in
    List.iter
      (fun tx ->
        Int_tbl.remove t.waiting_2safe tx;
        Obs.Registry.inc t.obs.c_ack_after_disk;
        respond_pending t tx Db.Testable_tx.Committed)
      ready_txs

let note_logged t tx origin =
  match Int_tbl.find_opt t.waiting_2safe tx with
  | None -> ()
  | Some w ->
    w.acks <- Net.Node_id.Set.add (node_of_index t origin) w.acks;
    check_2safe_responses t

let announce_logged t cws =
  let self = (server t).Server.index in
  if cws.Cert_ws.delegate = self then note_logged t cws.Cert_ws.ws.Db.Transaction.tx_id self
  else
    Net.Endpoint.send (server t).Server.endpoint
      ~dst:(node_of_index t cws.Cert_ws.delegate)
      (Logged { tx = cws.Cert_ws.ws.Db.Transaction.tx_id; origin = self })

(* The [Logged] announcement is a single message: dropped, it would leave
   the delegate waiting on an ack the peer will never resend, wedging that
   commit forever even after the network heals. While any response is
   waiting on acks, the delegate sweeps the peers it has not heard from
   with [Logged_query]; peers answer from [logged_local], which the WAL
   backs across crashes. The sweep disarms itself once nothing waits, so a
   quiesced system goes quiet. *)

let ack_poll_interval = Sim.Sim_time.span_ms 120.

let rec arm_ack_poll t =
  if (not t.ack_poll_armed) && Int_tbl.length t.waiting_2safe > 0 then begin
    t.ack_poll_armed <- true;
    Sim.Process.after (server t).Server.process ack_poll_interval (fun () ->
        t.ack_poll_armed <- false;
        poll_missing_acks t;
        arm_ack_poll t)
  end

and poll_missing_acks t =
  let self = (server t).Server.index in
  let waiting =
    Int_tbl.fold_sorted (fun tx w acc -> (tx, w) :: acc) t.waiting_2safe []
  in
  List.iter
    (fun (tx, w) ->
      List.iter
        (fun n ->
          if Net.Node_id.index n <> self && not (Net.Node_id.Set.mem n w.acks) then
            Net.Endpoint.send (server t).Server.endpoint ~dst:n (Logged_query { tx }))
        t.group)
    waiting

(* ---- The in-order processing pipeline ---- *)

let rec pump t =
  if t.r.Replica.ready && not t.pipe_busy then begin
    match Queue.take_opt t.pipe with
    | None -> ()
    | Some item ->
      t.pipe_busy <- true;
      t.current <- Some item;
      process t item
  end

and advance t () =
  t.pipe_busy <- false;
  t.current <- None;
  pump t

and process t item =
  let cws = item.cws in
  let ws = cws.Cert_ws.ws in
  let tx = ws.Db.Transaction.tx_id in
  let db = (server t).Server.db in
  if Db.Testable_tx.already_processed t.r.Replica.view tx then begin
    (* Replayed or retransmitted duplicate: testable transactions make the
       redelivery harmless (paper §4.3). *)
    ack_token t item.token;
    (match Db.Testable_tx.find t.r.Replica.view tx with
     | Some outcome -> respond_pending t tx outcome
     | None -> ());
    advance t ()
  end
  else
    Sim.Resource.request (server t).Server.cpus ~duration:t.certify_cpu
      (Replica.guard t.r (fun () ->
           let decided_at = Replica.now t.r in
           Replica.observe_phase t.r t.obs.h_certify ~name:"certify" ~tx ~from_:item.enq_at
             ~until:decided_at;
           (match Int_tbl.find_opt t.obs.bcast_at tx with
           | Some sent_at ->
             Int_tbl.remove t.obs.bcast_at tx;
             Replica.observe_phase t.r t.obs.h_abcast ~name:"abcast" ~tx ~from_:sent_at
               ~until:item.enq_at
           | None -> ());
           let decision = Db.Certifier.certify t.cert ~start:cws.Cert_ws.start ~ws in
           let outcome = outcome_of decision in
           Db.Testable_tx.record t.r.Replica.view tx outcome;
           Replica.tr_outcome t.r "decide" tx outcome;
           match decision with
           | Db.Certifier.Abort -> begin
               (* An abort needs no durability quorum: answer now and drop
                  the waiting entry so the ack sweep never polls for acks
                  that will never come. *)
               Int_tbl.remove t.waiting_2safe tx;
               respond_pending t tx Db.Testable_tx.Aborted;
               match t.mode with
               | Two_safe_mode | Very_safe_mode ->
                 (* The abort decision is the processing of the message: log
                    it, then acknowledge successful delivery. *)
                 let token = item.token in
                 Db.Db_engine.log_commit db ~tx ~decision ~writes:[]
                   ~k:
                     (Replica.guard t.r (fun () ->
                          Replica.tr_tx t.r "logged" tx;
                          Int_tbl.replace t.logged_local tx ();
                          ack_token t token));
                 advance t ()
               | Group_safe_mode | Group_one_safe_mode ->
                 Db.Db_engine.log_commit_quiet db ~tx ~decision ~writes:[];
                 advance t ()
             end
           | Db.Certifier.Commit ->
             let writes = ws.Db.Transaction.write_values in
             let count = List.length writes in
             Db.Db_engine.install_writes db writes;
             (match t.mode with
              | Group_safe_mode ->
                (* Fig. 8: answer at the decision; durability is the
                   group's business, disk work happens behind it. Only the
                   delegate holds the pending response, so only it counts
                   the acknowledgement. *)
                if Int_tbl.mem t.pending_responses tx then
                  Obs.Registry.inc t.obs.c_ack_before_disk;
                respond_pending t tx Db.Testable_tx.Committed;
                Db.Db_engine.log_commit db ~tx ~decision ~writes
                  ~k:
                    (Replica.guard t.r (fun () ->
                         Replica.observe_phase t.r t.obs.h_wal ~name:"wal" ~tx ~from_:decided_at
                           ~until:(Replica.now t.r);
                         Replica.tr_tx t.r "logged" tx));
                Db.Db_engine.write_io db ~count ~factor:t.apply_write_factor
                  ~k:(Replica.guard t.r (advance t))
              | Group_one_safe_mode ->
                (* Fig. 2: the delegate answers after applying the writes
                   and flushing the decision record. *)
                let applied = ref false and flushed = ref false in
                let maybe_respond () =
                  if !applied && !flushed then begin
                    if Int_tbl.mem t.pending_responses tx then
                      Obs.Registry.inc t.obs.c_ack_after_disk;
                    respond_pending t tx Db.Testable_tx.Committed
                  end
                in
                Db.Db_engine.log_commit db ~tx ~decision ~writes
                  ~k:
                    (Replica.guard t.r (fun () ->
                         Replica.observe_phase t.r t.obs.h_wal ~name:"wal" ~tx ~from_:decided_at
                           ~until:(Replica.now t.r);
                         Replica.tr_tx t.r "logged" tx;
                         flushed := true;
                         maybe_respond ()));
                Db.Db_engine.write_io db ~count ~factor:1.0
                  ~k:
                    (Replica.guard t.r (fun () ->
                         applied := true;
                         maybe_respond ();
                         advance t ()))
              | Two_safe_mode | Very_safe_mode ->
                (* §4.3: apply, log, then acknowledge successful delivery
                   and tell the delegate this server has logged. *)
                let token = item.token in
                Db.Db_engine.write_io db ~count ~factor:1.0
                  ~k:
                    (Replica.guard t.r (fun () ->
                         Db.Db_engine.log_commit db ~tx ~decision ~writes
                           ~k:
                             (Replica.guard t.r (fun () ->
                                  Replica.observe_phase t.r t.obs.h_wal ~name:"wal" ~tx
                                    ~from_:decided_at ~until:(Replica.now t.r);
                                  Replica.tr_tx t.r "logged" tx;
                                  Int_tbl.replace t.logged_local tx ();
                                  ack_token t token;
                                  announce_logged t cws));
                         advance t ())))))

let deliver t cws token =
  Replica.tr_tx t.r "deliver" cws.Cert_ws.ws.Db.Transaction.tx_id;
  Queue.push { cws; token; enq_at = Replica.now t.r } t.pipe;
  pump t

(* ---- Recovery ---- *)

let rebuild_from_local_log t =
  Replica.recover_local t.r;
  Db.Certifier.reset t.cert

let get_snapshot t () =
  (* The log position handed to the joiner covers everything delivered to
     this replica, including writesets still queued (or mid-flight) in the
     processing pipeline; ship those unprocessed ones explicitly. The
     in-flight item may complete between capture and transfer — the
     pipeline's testable-transaction check makes re-including it safe. *)
  let unprocessed =
    let queued = List.map (fun p -> p.cws) (List.of_seq (Queue.to_seq t.pipe)) in
    let not_done cws =
      not (Db.Testable_tx.already_processed t.r.Replica.view cws.Cert_ws.ws.Db.Transaction.tx_id)
    in
    match t.current with
    | Some p when not_done p.cws -> p.cws :: queued
    | Some _ | None -> queued
  in
  {
    Snapshot.values = Db.Db_engine.values_snapshot (server t).Server.db;
    view = Db.Testable_tx.freeze t.r.Replica.view;
    cert = Db.Certifier.freeze t.cert;
    pending = unprocessed;
  }

let install_snapshot t (s : Snapshot.t) =
  Db.Db_engine.install_snapshot (server t).Server.db s.Snapshot.values;
  Db.Testable_tx.thaw t.r.Replica.view s.Snapshot.view;
  Db.Certifier.thaw t.cert s.Snapshot.cert;
  List.iter
    (fun cws -> Queue.push { cws; token = None; enq_at = Replica.now t.r } t.pipe)
    s.Snapshot.pending;
  Replica.tr t.r "state_transfer" [];
  t.r.Replica.ready <- true;
  pump t

let cold_start t () =
  Replica.tr t.r "cold_start" [];
  (* Restart from this server's own durable state; the group's volatile
     knowledge is gone (paper Fig. 5). The certifier restarts empty on
     every member, consistently, since the ordering log also restarts. *)
  rebuild_from_local_log t;
  t.r.Replica.ready <- true;
  pump t

let on_kill t () =
  t.pipe_busy <- false;
  t.current <- None;
  Queue.clear t.pipe;
  Int_tbl.reset t.pending_responses;
  Int_tbl.reset t.waiting_2safe;
  Int_tbl.reset t.logged_local;
  t.ack_poll_armed <- false;
  Db.Certifier.reset t.cert

let on_restart_two_safe t () =
  (* Static crash recovery: rebuild locally (values, committed view and
     certification state all follow from the WAL, whose order is delivery
     order); the end-to-end broadcast replays whatever was not yet
     successfully delivered on top of it. *)
  rebuild_from_local_log t;
  (* The WAL's commits, in delivery order, rebuild the certifier. Everything
     in it is durably logged here: repopulate the table the [Logged_query]
     handler answers from, so a delegate still waiting on this server's ack
     can complete after the restart. *)
  List.iter
    (fun r ->
      (match r.Db.Db_engine.w_decision with
       | Db.Certifier.Commit ->
         Db.Certifier.note_commit t.cert ~write_items:(List.map fst r.Db.Db_engine.w_writes)
       | Db.Certifier.Abort -> ());
      Int_tbl.replace t.logged_local r.Db.Db_engine.w_tx ())
    (Db.Db_engine.wal_records (server t).Server.db);
  Replica.tr t.r "recovered_local" [];
  t.r.Replica.ready <- true;
  pump t

(* ---- Submission (delegate side) ---- *)

let submit t tx ~on_response =
  if Replica.admit t.r tx ~on_response then begin
    let id = tx.Db.Transaction.id in
    let submitted_at = Replica.now t.r in
    Int_tbl.replace t.pending_responses id on_response;
    let read_items = Db.Transaction.read_set tx in
    (* The certification snapshot is taken when the read phase begins:
       every item read afterwards is validated against all writesets that
       commit after this point, which is the conservative direction. *)
    let start = Db.Certifier.current_version t.cert in
    Db.Db_engine.read_seq (server t).Server.db ~items:read_items
      ~k:
        (Replica.guard t.r (fun () ->
             Replica.observe_phase t.r t.obs.h_read ~name:"read" ~tx:id ~from_:submitted_at
               ~until:(Replica.now t.r);
             if Db.Transaction.is_update tx then begin
               let cws =
                 {
                   Cert_ws.ws = Db.Transaction.to_writeset tx;
                   start;
                   delegate = (server t).Server.index;
                 }
               in
               (match t.mode with
                | Two_safe_mode | Very_safe_mode ->
                  Int_tbl.replace t.waiting_2safe id { acks = Net.Node_id.Set.empty };
                  arm_ack_poll t
                | Group_safe_mode | Group_one_safe_mode -> ());
               Replica.tr_tx t.r "broadcast" id;
               Int_tbl.replace t.obs.bcast_at id (Replica.now t.r);
               broadcast_cws t cws
             end
             else respond_pending t id Db.Testable_tx.Committed))
  end

(* ---- Construction ---- *)

let create server ~group ~mode ?fd_config ?(apply_write_factor = 0.625) ?uniform ?tuning
    ?delivery_delay ~registry ~tracer ~trace () =
  let delay_gate =
    match delivery_delay with
    | None -> Gcs.Delivery_delay.pass
    | Some delay -> Gcs.Delivery_delay.create server.Server.process ~delay
  in
  let obs =
    {
      h_read = Obs.Registry.histogram registry "phase.read_us";
      h_abcast = Obs.Registry.histogram registry "phase.broadcast_us";
      h_certify = Obs.Registry.histogram registry "phase.certify_us";
      h_wal = Obs.Registry.histogram registry "phase.wal_us";
      c_ack_before_disk = Obs.Registry.counter registry "txn.ack_before_disk";
      c_ack_after_disk = Obs.Registry.counter registry "txn.ack_after_disk";
      bcast_at = Int_tbl.create 64;
    }
  in
  let t =
    {
      r = Replica.create server ~level:(mode_level mode) ~tracer ~trace;
      mode;
      group = List.sort Net.Node_id.compare group;
      cert = Db.Certifier.create ();
      pending_responses = Int_tbl.create 64;
      waiting_2safe = Int_tbl.create 64;
      logged_local = Int_tbl.create 64;
      ack_poll_armed = false;
      pipe = Queue.create ();
      pipe_busy = false;
      current = None;
      bcast = None;
      apply_write_factor;
      certify_cpu = Sim.Sim_time.span_ms 0.1;
      obs;
    }
  in
  let endpoint = server.Server.endpoint in
  (match broadcast_family mode with
   | `Classical ->
     let ab =
       Abcast.create endpoint ~group ?fd_config ?uniform ?tuning ~delivery_delay:delay_gate
         ~metrics:registry
         ~deliver:(fun cws -> deliver t cws None)
         ~get_snapshot:(get_snapshot t) ~install_snapshot:(install_snapshot t)
         ~cold_start:(cold_start t) ()
     in
     t.bcast <- Some (Classical ab);
     (* During a rejoin the broadcast layer drives recovery; block the
        pipeline until it finishes. *)
     Sim.Process.on_restart server.Server.process (fun () -> t.r.Replica.ready <- false)
   | `End_to_end ->
     let e2e =
       E2e.create endpoint ~group ~disk:server.Server.disks
         ~write_time:(fun () ->
           Sim.Rng.uniform_span server.Server.rng
             (Db.Db_engine.config server.Server.db).Db.Db_engine.io_time_min
             (Db.Db_engine.config server.Server.db).Db.Db_engine.io_time_max)
         ?fd_config ?tuning ~delivery_delay:delay_gate ~metrics:registry
         ~deliver:(fun token cws -> deliver t cws (Some token))
         ()
     in
     t.bcast <- Some (End_to_end e2e);
     Gcs.Failure_detector.on_change (E2e.detector e2e) (fun () -> check_2safe_responses t);
     Sim.Process.on_restart server.Server.process (fun () -> on_restart_two_safe t ()));
  Sim.Process.on_kill server.Server.process (fun () -> on_kill t ());
  Net.Endpoint.add_handler endpoint (fun message ->
      match message.Net.Message.payload with
      | Logged { tx; origin } ->
        note_logged t tx origin;
        true
      | Logged_query { tx } ->
        if Int_tbl.mem t.logged_local tx then
          Net.Endpoint.send endpoint ~dst:message.Net.Message.src
            (Logged { tx; origin = server.Server.index });
        true
      | _ -> false);
  t

let set_mode t new_mode =
  if broadcast_family new_mode <> broadcast_family t.mode then
    invalid_arg
      "Dsm_replica.set_mode: can only switch within a broadcast family (group-safe <-> \
       group-1-safe, or 2-safe <-> very-safe)";
  t.mode <- new_mode;
  t.r.Replica.cat <- Safety.to_string (mode_level new_mode);
  Replica.tr t.r "mode_switch" [ ("to", t.r.Replica.cat) ];
  (* A relaxation (very-safe -> 2-safe) may unblock waiting responses. *)
  check_2safe_responses t

let certifier t = t.cert
