module Make
    (V : Replicated_log.VALUE)
    (S : sig
       type t
     end) =
struct
  module LV = struct
    (* Application messages and membership events share the total order:
       every member sees a view change at the same position relative to
       application messages — the virtual-synchrony property the paper's
       dynamic model assumes. *)
    type content = App of V.t | View_evt of { joined : int list; left : int list }

    type t = { uid : Uid.t; content : content }

    let equal a b = Uid.equal a.uid b.uid

    let pp ppf e =
      match e.content with
      | App v -> Format.fprintf ppf "%a:%a" Uid.pp e.uid V.pp v
      | View_evt { joined; left } ->
        Format.fprintf ppf "%a:view(+%d,-%d)" Uid.pp e.uid (List.length joined)
          (List.length left)
  end

  module Log = Replicated_log.Make (LV)
  module Uid_tbl = Hashtbl.Make (Uid)
  module Det_uid_tbl = Analysis.Det_tbl.Keyed (Uid_tbl)

  type Net.Message.payload +=
    | Join_req
    | Join_state of {
        snapshot : S.t;
        slot : int;
        uids : Uid_set.run list;
        view_id : int;
        view_members : int list;
      }
    | Join_recovering

  type t = {
    ep : Net.Endpoint.t;
    log : Log.t;
    group : Net.Node_id.t list;
    others : Net.Node_id.t list;
    deliver : V.t -> unit;
    get_snapshot : unit -> S.t;
    install_snapshot : S.t -> unit;
    cold_start : unit -> unit;
    delivered_uids : Uid_set.t;  (* volatile: wiped by a crash *)
    unstable : LV.t Uid_tbl.t;  (* broadcast but not yet seen ordered *)
    mutable next_seq : int;
    mutable delivered : int;
    mutable recovering : bool;
    mutable cold_started : bool;
    mutable join_replies : Net.Node_id.Set.t;  (* Join_recovering replies this attempt *)
    mutable cold_start_pending : bool;
    mutable view : View.t;
    mutable view_hooks : (View.t -> unit) list;
    delivery_delay : Delivery_delay.t;
    mutable retransmit : Retransmit.t option;  (* set right after [create]'s record *)
    m_broadcasts : Obs.Registry.counter;
    m_delivered : Obs.Registry.counter;
    m_retransmit_ticks : Obs.Registry.counter;
  }

  let recovering t = t.recovering
  let cold_started t = t.cold_started
  let delivered_count t = t.delivered
  let is_leading t = Log.is_leading t.log
  let break_no_accept_retransmit t = Log.break_no_accept_retransmit t.log
  let current_view t = t.view
  let on_view_change t f = t.view_hooks <- f :: t.view_hooks

  let node_of_index t i = List.find (fun n -> Net.Node_id.index n = i) t.group

  let install_view t members =
    let next = View.next t.view ~members in
    t.view <- next;
    List.iter (fun f -> f next) (List.rev t.view_hooks)

  let apply_view_event t ~joined ~left =
    let current = t.view.View.members in
    let without_left =
      List.filter (fun n -> not (List.mem (Net.Node_id.index n) left)) current
    in
    let with_joined =
      List.fold_left
        (fun acc i ->
          let n = node_of_index t i in
          if List.exists (Net.Node_id.equal n) acc then acc else n :: acc)
        without_left joined
    in
    let members = List.sort Net.Node_id.compare with_joined in
    let changed =
      List.length members <> List.length current
      || not (List.for_all2 Net.Node_id.equal members current)
    in
    if changed && members <> [] then install_view t members

  (* Marking [delivered_uids] happens at release time, together with the
     actual upcall, so a snapshot taken while entries sit in the delay gate
     never claims deliveries the application has not seen (donors also
     flush the gate before answering a join). *)
  let deliver_entry t { LV.uid; content } =
    if Uid_set.add t.delivered_uids uid then begin
      if not t.recovering then begin
        match content with
        | LV.App value ->
          t.delivered <- t.delivered + 1;
          Obs.Registry.inc t.m_delivered;
          t.deliver value
        | LV.View_evt { joined; left } -> apply_view_event t ~joined ~left
      end
    end

  (* A batched slot carries several entries; they are released through the
     delay gate one by one, in submission order, so the application and
     every oracle observe the same per-message stream as the unbatched
     engine. *)
  let on_log_decide t ~slot:_ entries =
    List.iter
      (fun entry ->
        if Uid_tbl.mem t.unstable entry.LV.uid then begin
          Uid_tbl.remove t.unstable entry.LV.uid;
          (* One of our own broadcasts got ordered: the path is making
             progress, so retransmission restarts from the base interval. *)
          Option.iter Retransmit.progress t.retransmit
        end;
        Delivery_delay.gate t.delivery_delay (fun () -> deliver_entry t entry))
      entries

  let fresh_uid t =
    let uid =
      {
        Uid.origin = Net.Node_id.index (Net.Endpoint.id t.ep);
        incarnation = Sim.Process.incarnation (Net.Endpoint.process t.ep);
        seq = t.next_seq;
      }
    in
    t.next_seq <- t.next_seq + 1;
    uid

  let broadcast_entry t content =
    let entry = { LV.uid = fresh_uid t; content } in
    Obs.Registry.inc t.m_broadcasts;
    Uid_tbl.replace t.unstable entry.LV.uid entry;
    Log.propose t.log entry

  let broadcast t value = if not t.recovering then broadcast_entry t (LV.App value)

  (* Membership maintenance: the lowest-indexed unsuspected member proposes
     the exclusion of suspected view members; a member that completed its
     rejoin proposes its own inclusion. Both travel the ordered log, so
     every member installs the same view sequence at the same point of the
     message flow. *)
  let propose_view_repairs t =
    if not t.recovering then
      match Log.leader_hint t.log with
      | Some leader when Net.Node_id.equal leader (Net.Endpoint.id t.ep) ->
        let suspected = Failure_detector.suspected (Log.detector t.log) in
        let left =
          List.filter_map
            (fun n -> if Net.Node_id.Set.mem n suspected then Some (Net.Node_id.index n) else None)
            t.view.View.members
        in
        if left <> [] then broadcast_entry t (LV.View_evt { joined = []; left })
      | Some _ | None -> ()

  let propose_self_join t =
    if not t.recovering then
      broadcast_entry t
        (LV.View_evt { joined = [ Net.Node_id.index (Net.Endpoint.id t.ep) ]; left = [] })

  let join_retry_interval = Sim.Sim_time.span_ms 50.
  let cold_start_grace = Sim.Sim_time.span_ms 10.

  let arm_retransmit t = Option.iter Retransmit.arm t.retransmit

  (* Volatile rejoin: ask peers for a snapshot; a live one answers with its
     application state and delivery position. If every peer answers that it
     is recovering too, the whole group was lost: cold start. *)
  let rec join_attempt t =
    if t.recovering then begin
      t.join_replies <- Net.Node_id.Set.empty;
      List.iter (fun p -> Net.Endpoint.send t.ep ~dst:p Join_req) t.others;
      Sim.Process.after (Net.Endpoint.process t.ep) join_retry_interval (fun () ->
          join_attempt t)
    end

  let finish_join t ~cold ~slot =
    if t.recovering then begin
      t.recovering <- false;
      t.cold_started <- cold;
      t.delivered <- 0;
      if cold then t.view <- View.initial t.group;
      Log.resume t.log ~slot;
      (* Announce presence so the view reflects this incarnation. *)
      propose_self_join t
    end

  let handle_message t message =
    let src = message.Net.Message.src in
    match message.Net.Message.payload with
    | Join_req ->
      (if t.recovering then Net.Endpoint.send t.ep ~dst:src Join_recovering
       else begin
         (* Release anything still held in the delay gate: the snapshot and
            its delivery position must reflect every decided entry. *)
         Delivery_delay.flush t.delivery_delay;
         Net.Endpoint.send t.ep ~dst:src
           (Join_state
              {
                snapshot = t.get_snapshot ();
                slot = Log.decided_prefix t.log;
                uids = Uid_set.export t.delivered_uids;
                view_id = t.view.View.id;
                view_members = List.map Net.Node_id.index t.view.View.members;
              })
       end);
      true
    | Join_state { snapshot; slot; uids; view_id; view_members } ->
      if t.recovering then begin
        t.install_snapshot snapshot;
        Uid_set.import t.delivered_uids uids;
        t.view <- { View.id = view_id; members = List.map (node_of_index t) view_members };
        finish_join t ~cold:false ~slot
      end;
      true
    | Join_recovering ->
      if t.recovering then begin
        t.join_replies <- Net.Node_id.Set.add src t.join_replies;
        (* A majority of members (self included) all lost their volatile
           state: the group has failed. Reform it from scratch — members
           restart from their own durable application state, and whatever
           only the group knew is gone (the paper's Fig. 5). A short grace
           period lets any live member's Join_state win the race: cold
           start must be the last resort. *)
        let recovering_members = Net.Node_id.Set.cardinal t.join_replies + 1 in
        if
          recovering_members >= View.quorum (List.length t.others + 1)
          && not t.cold_start_pending
        then begin
          t.cold_start_pending <- true;
          Sim.Process.after (Net.Endpoint.process t.ep) cold_start_grace (fun () ->
              t.cold_start_pending <- false;
              if t.recovering then begin
                t.cold_start ();
                finish_join t ~cold:true ~slot:0
              end)
        end
      end;
      true
    | _ -> false

  let create ep ~group ?fd_config ?uniform ?tuning ?(delivery_delay = Delivery_delay.pass)
      ?metrics ~deliver ~get_snapshot ~install_snapshot ~cold_start () =
    let group = List.sort_uniq Net.Node_id.compare group in
    (* Metric handles are resolved once here; without a caller-supplied
       registry the increments land in a private throwaway one, keeping the
       hot path identical whether or not anyone is observing. *)
    let metrics = match metrics with Some m -> m | None -> Obs.Registry.create () in
    let log = Log.create ep ~group ~mode:Log.Volatile ?fd_config ?uniform ?tuning ~metrics () in
    let self = Net.Endpoint.id ep in
    let others = List.filter (fun p -> not (Net.Node_id.equal p self)) group in
    let t =
      {
        ep;
        log;
        group;
        others;
        deliver;
        get_snapshot;
        install_snapshot;
        cold_start;
        delivered_uids = Uid_set.create ();
        unstable = Uid_tbl.create 16;
        next_seq = 0;
        delivered = 0;
        recovering = false;
        cold_started = false;
        join_replies = Net.Node_id.Set.empty;
        cold_start_pending = false;
        view = View.initial group;
        view_hooks = [];
        delivery_delay;
        retransmit = None;
        m_broadcasts = Obs.Registry.counter metrics "abcast.broadcasts";
        m_delivered = Obs.Registry.counter metrics "abcast.delivered";
        m_retransmit_ticks = Obs.Registry.counter metrics "abcast.retransmit_ticks";
      }
    in
    let engine = Net.Network.engine (Net.Endpoint.network ep) in
    t.retransmit <-
      Some
        (Retransmit.create
           ~process:(Net.Endpoint.process ep)
           ~rng:(Sim.Rng.split (Sim.Engine.rng engine))
           ~pending:(fun () -> (not t.recovering) && Uid_tbl.length t.unstable > 0)
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
    Failure_detector.on_change (Log.detector log) (fun () -> propose_view_repairs t);
    Net.Endpoint.add_handler ep (handle_message t);
    let process = Net.Endpoint.process ep in
    Sim.Process.on_kill process (fun () ->
        Uid_set.reset t.delivered_uids;
        Uid_tbl.reset t.unstable;
        t.join_replies <- Net.Node_id.Set.empty;
        t.cold_start_pending <- false);
    Sim.Process.on_restart process (fun () ->
        t.recovering <- true;
        t.next_seq <- 0;
        arm_retransmit t;
        join_attempt t);
    arm_retransmit t;
    t
end
