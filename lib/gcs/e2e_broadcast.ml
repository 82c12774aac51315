module Make (V : Replicated_log.VALUE) = struct
  module LV = struct
    type t = { uid : Uid.t; value : V.t }

    let equal a b = Uid.equal a.uid b.uid
    let pp ppf e = Format.fprintf ppf "%a:%a" Uid.pp e.uid V.pp e.value
  end

  module Log = Replicated_log.Make (LV)
  module Uid_tbl = Hashtbl.Make (Uid)
  module Det_uid_tbl = Analysis.Det_tbl.Keyed (Uid_tbl)

  type token = int (* the log slot of the delivery *)

  type t = {
    ep : Net.Endpoint.t;
    log : Log.t;
    cursor : int Store.Durable_cell.t;
    deliver : token -> V.t -> unit;
    (* Volatile; rebuilt during replay after each restart. *)
    seen_uids : Uid_set.t;
    unstable : LV.t Uid_tbl.t;
    (* Deliveries made minus acks received, per slot: a batched slot is
       acknowledged (and the durable cursor advanced past it) only once the
       application acked every value it carried. Volatile. *)
    outstanding : int ref Analysis.Int_tbl.t;
    mutable next_seq : int;
    mutable delivered : int;
    delivery_delay : Delivery_delay.t;
    mutable retransmit : Retransmit.t option;  (* set right after [create]'s record *)
    m_broadcasts : Obs.Registry.counter;
    m_delivered : Obs.Registry.counter;
    m_retransmit_ticks : Obs.Registry.counter;
    m_acks : Obs.Registry.counter;
  }

  let delivered_count t = t.delivered
  let acked_slot t = Store.Durable_cell.read t.cursor
  let is_leading t = Log.is_leading t.log
  let detector t = Log.detector t.log
  let break_no_accept_retransmit t = Log.break_no_accept_retransmit t.log

  (* Deduplication is decided at release time: an entry held in the delay
     gate at a crash is dropped with the gate's queue and replayed by the
     durable log later — at which point it is not yet in [seen_uids]. *)
  let deliver_decided t ~slot { LV.uid; value } =
    let duplicate = not (Uid_set.add t.seen_uids uid) in
    (* Slots below the durable cursor were successfully delivered before
       a crash: recorded for deduplication but not redelivered. *)
    if (not duplicate) && slot >= Store.Durable_cell.read t.cursor then begin
      t.delivered <- t.delivered + 1;
      Obs.Registry.inc t.m_delivered;
      (match Analysis.Int_tbl.find_opt t.outstanding slot with
       | Some r -> incr r
       | None -> Analysis.Int_tbl.replace t.outstanding slot (ref 1));
      t.deliver slot value
    end

  let on_log_decide t ~slot entries =
    List.iter
      (fun entry ->
        if Uid_tbl.mem t.unstable entry.LV.uid then begin
          Uid_tbl.remove t.unstable entry.LV.uid;
          Option.iter Retransmit.progress t.retransmit
        end;
        Delivery_delay.gate t.delivery_delay (fun () -> deliver_decided t ~slot entry))
      entries

  let ack t token =
    match Analysis.Int_tbl.find_opt t.outstanding token with
    | None -> ()
    | Some r ->
      decr r;
      if !r <= 0 then begin
        Analysis.Int_tbl.remove t.outstanding token;
        let current = Store.Durable_cell.read t.cursor in
        if token + 1 > current then begin
          Obs.Registry.inc t.m_acks;
          Store.Durable_cell.write_quiet t.cursor (token + 1)
        end
      end

  let broadcast t value =
    let uid =
      {
        Uid.origin = Net.Node_id.index (Net.Endpoint.id t.ep);
        incarnation = Sim.Process.incarnation (Net.Endpoint.process t.ep);
        seq = t.next_seq;
      }
    in
    t.next_seq <- t.next_seq + 1;
    let entry = { LV.uid; value } in
    Obs.Registry.inc t.m_broadcasts;
    Uid_tbl.replace t.unstable uid entry;
    Log.propose t.log entry

  let arm_retransmit t = Option.iter Retransmit.arm t.retransmit

  let create ep ~group ~disk ~write_time ?fd_config ?tuning
      ?(delivery_delay = Delivery_delay.pass) ?metrics ~deliver () =
    let metrics = match metrics with Some m -> m | None -> Obs.Registry.create () in
    let log =
      Log.create ep ~group
        ~mode:(Log.Durable { disk; write_time })
        ?fd_config ?tuning ~metrics ()
    in
    let engine = Net.Network.engine (Net.Endpoint.network ep) in
    let cursor =
      Store.Durable_cell.create engine
        ~name:(Net.Node_id.label (Net.Endpoint.id ep) ^ ".cursor")
        ~disk ~write_time ~initial:0
    in
    let t =
      {
        ep;
        log;
        cursor;
        deliver;
        seen_uids = Uid_set.create ();
        unstable = Uid_tbl.create 16;
        outstanding = Analysis.Int_tbl.create 16;
        next_seq = 0;
        delivered = 0;
        delivery_delay;
        retransmit = None;
        m_broadcasts = Obs.Registry.counter metrics "e2e.broadcasts";
        m_delivered = Obs.Registry.counter metrics "e2e.delivered";
        m_retransmit_ticks = Obs.Registry.counter metrics "e2e.retransmit_ticks";
        m_acks = Obs.Registry.counter metrics "e2e.acks";
      }
    in
    t.retransmit <-
      Some
        (Retransmit.create ~process:(Net.Endpoint.process ep)
           ~rng:(Sim.Rng.split (Sim.Engine.rng engine))
           ~pending:(fun () -> Uid_tbl.length t.unstable > 0)
           ~action:(fun () ->
             Obs.Registry.inc t.m_retransmit_ticks;
             (* Re-proposals hit the simulated network in uid order: the
                proposal stream must depend on which entries are unstable,
                never on the order they entered the table. *)
             Det_uid_tbl.iter ~cmp:Uid.compare
               (fun _ entry -> Log.propose t.log entry)
               t.unstable)
           ());
    Log.on_decide log (on_log_decide t);
    let process = Net.Endpoint.process ep in
    Sim.Process.on_kill process (fun () ->
        Store.Durable_cell.crash cursor;
        Uid_set.reset t.seen_uids;
        Uid_tbl.reset t.unstable;
        Analysis.Int_tbl.reset t.outstanding);
    Sim.Process.on_restart process (fun () ->
        t.next_seq <- 0;
        arm_retransmit t);
    arm_retransmit t;
    t
end
