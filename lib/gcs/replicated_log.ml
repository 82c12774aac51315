module Ballot = Paxos_core.Ballot
module Int_tbl = Analysis.Int_tbl

(* A leader flushes a partial batch this long after its first value. *)
let batch_delay = Sim.Sim_time.span_ms 1.

module type VALUE = sig
  type t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Make (V : VALUE) = struct
  (* [Batch] packs several application values into one consensus instance;
     they are unbatched, in submission order, at delivery time, so the
     layer above always observes a per-value stream. *)
  type entry = Noop | App of V.t | Batch of V.t list

  let entry_values = function Noop -> [] | App v -> [ v ] | Batch vs -> vs
  let entry_of_batch = function [ v ] -> App v | vs -> Batch vs

  type mode =
    | Volatile
    | Durable of { disk : Sim.Resource.t; write_time : unit -> Sim.Sim_time.span }

  type status = Active | Recovering

  (* Acceptor state records persisted in durable mode, in append order. *)
  type dur_record = D_promised of Ballot.t | D_accepted of int * Ballot.t * entry

  type Net.Message.payload +=
    | Prepare of { b : Ballot.t; from_slot : int }
    | Promise of {
        b : Ballot.t;
        accepted : (int * Ballot.t * entry) list;
        chosen : (int * entry) list;
      }
    | Nack of { promised : Ballot.t }
    | Accept of { b : Ballot.t; slot : int; e : entry }
    | Accept_ok of { b : Ballot.t; slot : int }
    | Ring_accept of {
        b : Ballot.t;
        slot : int;
        e : entry;
        acks : int list;
            (* node indexes the circulation has visited; until it reaches a
               quorum every element is a genuine acceptance, afterwards new
               hops append themselves as visited-only markers. *)
        commit : int;  (* sender's first unchosen slot: a decided watermark. *)
      }
    | Chosen of { slot : int; e : entry }
    | Propose_req of { v : V.t; ttl : int }
    | Catchup_req of { from_slot : int }
    | Catchup_reply of { entries : (int * entry) list }

  type prepare_state = {
    p_ballot : Ballot.t;
    p_from : int;
    mutable p_voters : int list;  (* node indexes that promised *)
    p_reports : (Ballot.t * entry) list Int_tbl.t;  (* slot -> reported accepts *)
    mutable p_top : int;  (* highest slot in [p_reports], -1 if none *)
  }

  type leading_state = {
    l_ballot : Ballot.t;
    mutable l_next_slot : int;
    l_inflight : (entry * int list ref) Int_tbl.t;  (* slot -> entry, voters *)
  }

  type leadership = Follower | Preparing of prepare_state | Leading of leading_state

  type t = {
    ep : Net.Endpoint.t;
    (* Never read after construction; kept so an inspected node state names
       its engine. *)
    engine : Sim.Engine.t; [@warning "-69"]
    uniform : bool;
    group : Net.Node_id.t list;  (* sorted, includes self *)
    others : Net.Node_id.t list;
    self : Net.Node_id.t;
    quorum : int;
    mode : mode;
    storage : dur_record Store.Stable_storage.t option;
    fd : Failure_detector.t;
    mutable status : status;
    (* Acceptor: one global promise, per-slot accepted values. *)
    mutable promised : Ballot.t option;
    accepted : (Ballot.t * entry) Int_tbl.t;
    mutable max_accepted_seen : int;
    (* Learner. *)
    chosen : entry Int_tbl.t;
    mutable first_unchosen : int;
    mutable next_deliver : int;
    mutable max_chosen_seen : int;
    (* Proposer. *)
    mutable leadership : leadership;
    mutable max_round : int;
    pending : V.t Queue.t;
    tuning : Bcast_tuning.t;
    mutable batch_timer_armed : bool;  (* a partial-batch flush is scheduled *)
    mutable deliver_hook : slot:int -> V.t list -> unit;
    mutable accept_rt : Retransmit.t option;  (* set right after [create]'s record *)
    mutable accept_retransmit_broken : bool;  (* oracle-mutation hook; see mli *)
    m_prepares : Obs.Registry.counter;
    m_accepts_sent : Obs.Registry.counter;
    m_accept_resends : Obs.Registry.counter;
    m_chosen : Obs.Registry.counter;
    m_batch_size : Obs.Histogram.t;
    m_window : Obs.Histogram.t;
  }

  let id m = m.self
  let status m = m.status
  let mode_is_durable m = match m.mode with Durable _ -> true | Volatile -> false
  let on_decide m f = m.deliver_hook <- f
  let decided_prefix m = m.next_deliver
  let detector m = m.fd
  let leader_hint m = match Failure_detector.trusted m.fd with [] -> None | l :: _ -> Some l
  let is_leading m = match m.leadership with Leading _ -> true | Follower | Preparing _ -> false
  let break_no_accept_retransmit m = m.accept_retransmit_broken <- true

  let chosen_at m slot =
    match Int_tbl.find_opt m.chosen slot with
    | None -> None
    | Some e -> Some (entry_values e)

  let persist m record k =
    match m.storage with
    | None -> k ()
    | Some st ->
      Store.Stable_storage.append st record
        ~on_durable:(Sim.Process.guard (Net.Endpoint.process m.ep) k)

  let note_ballot m (b : Ballot.t) = if b.round > m.max_round then m.max_round <- b.round

  let record_accepted m slot (b, e) =
    Int_tbl.replace m.accepted slot (b, e);
    if slot > m.max_accepted_seen then m.max_accepted_seen <- slot

  (* Slots are dense integers below a tracked high-water mark, so slot
     tables are enumerated with a bounded range scan: ascending by
     construction (deterministic without sorting), and O(slots above
     [from_slot]) rather than O(table) — [handle_prepare] runs on every
     leader lease re-assertion, where a whole-table walk would grow
     without bound over a long run. *)
  let slot_range tbl ~from_slot ~until f =
    let acc = ref [] in
    for slot = until downto from_slot do
      match Int_tbl.find_opt tbl slot with
      | Some v -> acc := f slot v :: !acc
      | None -> ()
    done;
    !acc

  (* Acceptor state as a Paxos_core view for one slot. *)
  let slot_acceptor m slot : entry Paxos_core.acceptor =
    { promised = m.promised; accepted = Int_tbl.find_opt m.accepted slot }

  let deliver_ready m =
    let rec loop () =
      match Int_tbl.find_opt m.chosen m.next_deliver with
      | None -> ()
      | Some e ->
        let slot = m.next_deliver in
        m.next_deliver <- slot + 1;
        (m.deliver_hook ~slot (entry_values e) : unit);
        loop ()
    in
    loop ()

  let add_chosen m slot e =
    if not (Int_tbl.mem m.chosen slot) then begin
      Obs.Registry.inc m.m_chosen;
      Int_tbl.replace m.chosen slot e;
      if slot > m.max_chosen_seen then m.max_chosen_seen <- slot;
      while Int_tbl.mem m.chosen m.first_unchosen do
        m.first_unchosen <- m.first_unchosen + 1
      done;
      deliver_ready m
    end

  let send m dst payload = Net.Endpoint.send m.ep ~dst payload
  let broadcast m payload = Net.Endpoint.broadcast m.ep ~to_:m.group payload

  (* ---- Proposer ---- *)

  let member_of_index m i = List.find_opt (fun n -> Net.Node_id.index n = i) m.group

  (* Next hop for a circulating [Ring_accept]: the trusted member closest
     after us in index-cyclic order that the circulation has not visited.
     [None] once every trusted member has been visited — the message then
     returns to its coordinator. *)
  let ring_next m ~visited =
    let my = Net.Node_id.index m.self in
    let n = List.length m.group in
    let dist node = (Net.Node_id.index node - my + n) mod n in
    List.fold_left
      (fun best node ->
        let i = Net.Node_id.index node in
        if i = my || List.mem i visited || Failure_detector.suspects m.fd node then best
        else
          match best with
          | Some b when dist b <= dist node -> best
          | Some _ | None -> Some node)
      None m.group

  let pop_batch m =
    let k = min (Queue.length m.pending) m.tuning.Bcast_tuning.batch in
    let rec take n acc = if n = 0 then List.rev acc else take (n - 1) (Queue.pop m.pending :: acc) in
    take k []

  let window_room m (l : leading_state) =
    Int_tbl.length l.l_inflight < m.tuning.Bcast_tuning.window

  let ring_idle m (l : leading_state) =
    Int_tbl.length l.l_inflight = 0 && Queue.is_empty m.pending

  let rec send_accept m (l : leading_state) slot e =
    Obs.Registry.inc m.m_accepts_sent;
    Int_tbl.replace l.l_inflight slot (e, ref []);
    Obs.Histogram.add m.m_batch_size (List.length (entry_values e));
    Obs.Histogram.add m.m_window (Int_tbl.length l.l_inflight);
    (match m.tuning.Bcast_tuning.dissemination with
     | Bcast_tuning.Broadcast -> broadcast m (Accept { b = l.l_ballot; slot; e })
     | Bcast_tuning.Ring -> ring_send m l.l_ballot slot e);
    (* Non-uniform delivery (ablation): the leader treats its own proposal
       as decided immediately, without waiting for a majority. Cheaper by
       a round trip, but an entry can be delivered (and acted upon) at a
       single process that then fails — exactly what uniform agreement
       rules out. *)
    if not m.uniform then add_chosen m slot e

  (* Ring dissemination: the coordinator accepts its own proposal, then the
     value travels the trusted ring, each hop persisting an acceptance and
     stacking its index on [acks]; once [quorum] indexes are stacked every
     later hop learns the slot as chosen, and the message finally returns
     to the coordinator, which completes the instance. The coordinator pays
     one send and one receive per instance instead of a full fan-out plus
     [n] Accept_oks. *)
  and ring_send m (b : Ballot.t) slot e =
    match Paxos_core.receive_accept (slot_acceptor m slot) b e with
    | Paxos_core.Accept_nack _ -> ()  (* outranked; peer Nacks will demote us *)
    | Paxos_core.Accepted state ->
      m.promised <- state.Paxos_core.promised;
      (match state.Paxos_core.accepted with
       | Some (ab, ae) -> record_accepted m slot (ab, ae)
       | None -> ());
      persist m (D_accepted (slot, b, e)) (fun () ->
          let my = Net.Node_id.index m.self in
          if m.quorum <= 1 then ring_returned m b slot
          else ring_forward m b slot e [ my ])

  and ring_forward m (b : Ballot.t) slot e visited =
    let commit = m.first_unchosen in
    match ring_next m ~visited with
    | Some dst -> send m dst (Ring_accept { b; slot; e; acks = visited; commit })
    | None -> begin
        (* Ring exhausted away from the coordinator: hand the result back
           directly (we are the last trusted hop). *)
        match member_of_index m b.proposer with
        | Some dst when not (Net.Node_id.equal dst m.self) ->
          send m dst (Ring_accept { b; slot; e; acks = visited; commit })
        | Some _ | None -> ()
      end

  (* A [Ring_accept] came home with a quorum of acceptances. *)
  and ring_returned m (b : Ballot.t) slot =
    match m.leadership with
    | Leading l when Ballot.equal l.l_ballot b -> begin
        match Int_tbl.find_opt l.l_inflight slot with
        | None -> ()
        | Some (e, _) ->
          Int_tbl.remove l.l_inflight slot;
          Option.iter Retransmit.progress m.accept_rt;
          add_chosen m slot e;
          if ring_idle m l then
            (* No follow-on traffic will carry the commit watermark: close
               the tail explicitly so followers do not wait a housekeeping
               period to learn the last slots. *)
            broadcast m (Chosen { slot; e })
          else drain m l
      end
    | Leading _ | Preparing _ | Follower -> ()

  (* An [Accept] (or its [Accept_ok]) lost to the network would strand its
     slot forever: the leader keeps the entry in-flight, but only a {e new}
     leader's prepare round re-proposes unchosen slots, and a stable leader
     never runs one — every later slot then gets chosen above a hole nothing
     can deliver past. The retransmit driver re-broadcasts every in-flight
     accept (re-initiates its circulation in ring mode); acceptors treat a
     repeat of an already-promised ballot idempotently. *)
  and resend_inflight m =
    if m.accept_retransmit_broken then ()
    else
    match m.leadership with
    | Leading l ->
      Int_tbl.iter_sorted
        (fun slot (e, _) ->
          Obs.Registry.inc m.m_accept_resends;
          match m.tuning.Bcast_tuning.dissemination with
          | Bcast_tuning.Broadcast -> broadcast m (Accept { b = l.l_ballot; slot; e })
          | Bcast_tuning.Ring -> ring_send m l.l_ballot slot e)
        l.l_inflight
    | Preparing _ | Follower -> ()

  and assign_and_send m (l : leading_state) e =
    let slot = l.l_next_slot in
    l.l_next_slot <- slot + 1;
    send_accept m l slot e

  (* Deterministic flush rule: a full batch is sent the instant it exists
     (window permitting); a partial batch is sent only by the batch-delay
     timer. With the default tuning (batch = 1, unbounded window) every
     submission forms a full batch and flushes synchronously — the seed
     engine's event sequence, unchanged. *)
  and drain m (l : leading_state) =
    while Queue.length m.pending >= m.tuning.Bcast_tuning.batch && window_room m l do
      assign_and_send m l (entry_of_batch (pop_batch m))
    done;
    arm_batch_timer m

  and flush_partial m (l : leading_state) =
    while (not (Queue.is_empty m.pending)) && window_room m l do
      assign_and_send m l (entry_of_batch (pop_batch m))
    done;
    (* Leftovers mean the window is full: re-arm so they flush even if no
       completion arrives to drain them (e.g. during a drop window). *)
    arm_batch_timer m

  and arm_batch_timer m =
    if
      (not m.batch_timer_armed)
      && m.tuning.Bcast_tuning.batch > 1
      && not (Queue.is_empty m.pending)
    then begin
      m.batch_timer_armed <- true;
      Sim.Process.after (Net.Endpoint.process m.ep) batch_delay (fun () ->
          m.batch_timer_armed <- false;
          match m.leadership with
          | Leading l -> flush_partial m l
          | Preparing _ | Follower -> ())
    end

  and flush_pending m =
    match m.leadership with
    | Leading l -> drain m l
    | Follower -> begin
        match leader_hint m with
        | Some l when not (Net.Node_id.equal l m.self) ->
          Queue.iter (fun v -> send m l (Propose_req { v; ttl = 8 })) m.pending;
          Queue.clear m.pending
        | Some _ | None -> ()
      end
    | Preparing _ -> ()

  and start_prepare m =
    Obs.Registry.inc m.m_prepares;
    let b = { Ballot.round = m.max_round + 1; proposer = Net.Node_id.index m.self } in
    m.max_round <- b.round;
    let ps =
      {
        p_ballot = b;
        p_from = m.first_unchosen;
        p_voters = [];
        p_reports = Int_tbl.create 16;
        p_top = -1;
      }
    in
    m.leadership <- Preparing ps;
    broadcast m (Prepare { b; from_slot = ps.p_from })

  and election_check m =
    if m.status = Active then begin
      match leader_hint m with
      | Some l when Net.Node_id.equal l m.self -> begin
          match m.leadership with
          | Leading _ | Preparing _ -> ()
          | Follower -> start_prepare m
        end
      | Some _ ->
        (match m.leadership with
         | Leading _ | Preparing _ -> m.leadership <- Follower
         | Follower -> ());
        flush_pending m
      | None -> ()
    end

  let propose m v =
    if m.status = Active then begin
      match m.leadership with
      | Leading l ->
        Queue.push v m.pending;
        drain m l
      | Preparing _ -> Queue.push v m.pending
      | Follower ->
        Queue.push v m.pending;
        flush_pending m;
        election_check m
    end

  (* ---- Prepare handling (acceptor side) ---- *)

  let handle_prepare m src (b : Ballot.t) from_slot =
    note_ballot m b;
    (* Leader lease re-assertions repeat the already-promised ballot; they
       must not cost a stable-storage write in durable mode. *)
    let already_promised =
      match m.promised with Some p -> Ballot.equal p b | None -> false
    in
    match Paxos_core.receive_prepare (slot_acceptor m (-1)) b with
    | Paxos_core.Prepare_nack promised -> send m src (Nack { promised })
    | Paxos_core.Promise (state, _) ->
      m.promised <- state.Paxos_core.promised;
      let accepted =
        slot_range m.accepted ~from_slot ~until:m.max_accepted_seen (fun slot (ab, ae) ->
            (slot, ab, ae))
      in
      let chosen =
        slot_range m.chosen ~from_slot ~until:m.max_chosen_seen (fun slot e -> (slot, e))
      in
      let reply () = send m src (Promise { b; accepted; chosen }) in
      if already_promised then reply () else persist m (D_promised b) reply

  (* ---- Promise handling (proposer side) ---- *)

  let finish_prepare m (ps : prepare_state) =
    let l =
      { l_ballot = ps.p_ballot; l_next_slot = ps.p_from; l_inflight = Int_tbl.create 16 }
    in
    m.leadership <- Leading l;
    (* The highest slot any report or local state mentions, and at least
       [first_unchosen - 1]. Accepted slots leave their table only when
       [max_accepted_seen] is reset with it, so that mark is exact;
       [max_chosen_seen] can run ahead of [chosen] (a ring's commit
       watermark), so the highest chosen slot is found by scanning down
       from it to [first_unchosen]. *)
    let rec top_chosen slot =
      if slot < m.first_unchosen || Int_tbl.mem m.chosen slot then slot
      else top_chosen (slot - 1)
    in
    let top =
      Int.max
        (Int.max (m.first_unchosen - 1) ps.p_top)
        (Int.max m.max_accepted_seen (top_chosen m.max_chosen_seen))
    in
    for slot = ps.p_from to top do
      match Int_tbl.find_opt m.chosen slot with
      | Some e -> broadcast m (Chosen { slot; e })
      | None ->
        let reports =
          (match Int_tbl.find_opt ps.p_reports slot with
           | Some l -> List.map (fun (b, e) -> Some (b, e)) l
           | None -> [])
          @ [ Int_tbl.find_opt m.accepted slot ]
        in
        let e = match Paxos_core.value_to_propose reports with Some e -> e | None -> Noop in
        send_accept m l slot e
    done;
    l.l_next_slot <- top + 1;
    flush_pending m

  let handle_promise m src (b : Ballot.t) accepted chosen =
    match m.leadership with
    | Preparing ps when Ballot.equal ps.p_ballot b ->
      List.iter (fun (slot, e) -> add_chosen m slot e) chosen;
      List.iter
        (fun (slot, ab, ae) ->
          let prev = Option.value ~default:[] (Int_tbl.find_opt ps.p_reports slot) in
          Int_tbl.replace ps.p_reports slot ((ab, ae) :: prev);
          if slot > ps.p_top then ps.p_top <- slot)
        accepted;
      let voter = Net.Node_id.index src in
      if not (List.mem voter ps.p_voters) then begin
        ps.p_voters <- voter :: ps.p_voters;
        if List.length ps.p_voters >= m.quorum then finish_prepare m ps
      end
    | Preparing _ | Leading _ | Follower -> ()

  (* ---- Accept handling (acceptor side) ---- *)

  let handle_accept m src (b : Ballot.t) slot e =
    note_ballot m b;
    match Paxos_core.receive_accept (slot_acceptor m slot) b e with
    | Paxos_core.Accept_nack promised -> send m src (Nack { promised })
    | Paxos_core.Accepted state ->
      m.promised <- state.Paxos_core.promised;
      (match state.Paxos_core.accepted with
       | Some (ab, ae) -> record_accepted m slot (ab, ae)
       | None -> ());
      persist m (D_accepted (slot, b, e)) (fun () -> send m src (Accept_ok { b; slot }));
      if not m.uniform then add_chosen m slot e

  (* ---- Accept_ok handling (proposer side) ---- *)

  let handle_accept_ok m src (b : Ballot.t) slot =
    match m.leadership with
    | Leading l when Ballot.equal l.l_ballot b -> begin
        match Int_tbl.find_opt l.l_inflight slot with
        | None -> ()
        | Some (e, voters) ->
          let voter = Net.Node_id.index src in
          if not (List.mem voter !voters) then begin
            voters := voter :: !voters;
            if List.length !voters >= m.quorum then begin
              Int_tbl.remove l.l_inflight slot;
              Option.iter Retransmit.progress m.accept_rt;
              add_chosen m slot e;
              broadcast m (Chosen { slot; e });
              (* A window slot just freed: flush queued batches. *)
              drain m l
            end
          end
      end
    | Leading _ | Preparing _ | Follower -> ()

  let handle_nack m (promised : Ballot.t) =
    note_ballot m promised;
    let outranked (b : Ballot.t) = Ballot.compare promised b > 0 in
    let demoted =
      match m.leadership with
      | Preparing ps when outranked ps.p_ballot -> true
      | Leading l when outranked l.l_ballot -> true
      | Preparing _ | Leading _ | Follower -> false
    in
    if demoted then begin
      m.leadership <- Follower;
      (* Retry shortly: if the detector still points at us we will prepare
         with a higher round; otherwise the rightful leader proceeds. *)
      Sim.Process.after (Net.Endpoint.process m.ep) (Sim.Sim_time.span_ms 5.) (fun () ->
          election_check m)
    end

  (* ---- Ring_accept handling ---- *)

  (* Learn chosen slots from a circulating message's commit watermark: the
     sender had decided everything below [commit], so any slot we hold
     accepted {e at the same ballot} is safely chosen (one ballot proposes
     one value per slot; a stale lower-ballot acceptance must not be
     fast-pathed). Anything still missing is fetched by the housekeeping
     catch-up once [max_chosen_seen] advances past [first_unchosen]. *)
  let ring_note_commit m (b : Ballot.t) commit =
    if commit - 1 > m.max_chosen_seen then m.max_chosen_seen <- commit - 1;
    for slot = m.first_unchosen to commit - 1 do
      if not (Int_tbl.mem m.chosen slot) then
        match Int_tbl.find_opt m.accepted slot with
        | Some (ab, ae) when Ballot.equal ab b -> add_chosen m slot ae
        | Some _ | None -> ()
    done

  let handle_ring_accept m (b : Ballot.t) slot e acks commit =
    note_ballot m b;
    ring_note_commit m b commit;
    let my = Net.Node_id.index m.self in
    if b.proposer = my then ring_returned m b slot
    else if List.length acks >= m.quorum then begin
      (* Decided upstream: learn it, mark ourselves visited, keep the
         circulation going so every trusted member learns it too. *)
      add_chosen m slot e;
      ring_forward m b slot e (my :: acks)
    end
    else begin
      match Paxos_core.receive_accept (slot_acceptor m slot) b e with
      | Paxos_core.Accept_nack promised -> begin
          match member_of_index m b.proposer with
          | Some dst when not (Net.Node_id.equal dst m.self) -> send m dst (Nack { promised })
          | Some _ | None -> ()
        end
      | Paxos_core.Accepted state ->
        m.promised <- state.Paxos_core.promised;
        (match state.Paxos_core.accepted with
         | Some (ab, ae) -> record_accepted m slot (ab, ae)
         | None -> ());
        persist m (D_accepted (slot, b, e)) (fun () ->
            let acks = my :: acks in
            if List.length acks >= m.quorum then add_chosen m slot e;
            ring_forward m b slot e acks)
    end

  let handle_propose_req m v ttl =
    if m.status = Active then begin
      match m.leadership with
      | Leading l ->
        Queue.push v m.pending;
        drain m l
      | Preparing _ -> Queue.push v m.pending
      | Follower -> begin
          match leader_hint m with
          | Some l when (not (Net.Node_id.equal l m.self)) && ttl > 0 ->
            send m l (Propose_req { v; ttl = ttl - 1 })
          | Some _ | None -> Queue.push v m.pending
        end
    end

  let handle_chosen m src slot e =
    add_chosen m slot e;
    if m.first_unchosen < slot then send m src (Catchup_req { from_slot = m.first_unchosen })

  let handle_catchup_req m src from_slot =
    let entries =
      slot_range m.chosen ~from_slot ~until:m.max_chosen_seen (fun slot e -> (slot, e))
    in
    if entries <> [] then send m src (Catchup_reply { entries })

  (* ---- Crash and recovery ---- *)

  let wipe_volatile m =
    m.promised <- None;
    Int_tbl.reset m.accepted;
    m.max_accepted_seen <- -1;
    Int_tbl.reset m.chosen;
    m.leadership <- Follower;
    Queue.clear m.pending;
    m.first_unchosen <- 0;
    m.next_deliver <- 0;
    m.max_chosen_seen <- -1

  let resume m ~slot =
    if m.status = Recovering then begin
      wipe_volatile m;
      m.first_unchosen <- slot;
      m.next_deliver <- slot;
      m.status <- Active;
      election_check m
    end

  let reload_durable m st =
    List.iter
      (function
        | D_promised b -> begin
            match m.promised with
            | Some p when Ballot.compare p b >= 0 -> ()
            | Some _ | None -> m.promised <- Some b
          end
        | D_accepted (slot, b, e) -> begin
            note_ballot m b;
            match Int_tbl.find_opt m.accepted slot with
            | Some (prev, _) when Ballot.compare prev b >= 0 -> ()
            | Some _ | None -> record_accepted m slot (b, e)
          end)
      (Store.Stable_storage.durable_records st);
    match m.promised with Some b -> note_ballot m b | None -> ()

  let handle_restart m =
    match (m.mode, m.storage) with
    | Volatile, _ ->
      m.status <- Recovering
      (* The layer above performs state transfer and calls [resume]. *)
    | Durable { disk; write_time }, Some st ->
      (* One timed disk read models scanning the protocol log. *)
      m.status <- Recovering;
      Sim.Resource.request disk ~duration:(write_time ())
        (Sim.Process.guard (Net.Endpoint.process m.ep) (fun () ->
             wipe_volatile m;
             reload_durable m st;
             m.status <- Active;
             List.iter (fun p -> send m p (Catchup_req { from_slot = 0 })) m.others;
             election_check m))
    | Durable _, None -> assert false

  let handle_kill m =
    (match m.storage with Some st -> Store.Stable_storage.crash st | None -> ());
    m.leadership <- Follower;
    (* Timers scheduled on a killed process never fire. *)
    m.batch_timer_armed <- false;
    match m.mode with Volatile -> wipe_volatile m | Durable _ -> ()

  (* ---- Wiring ---- *)

  let handle_message m message =
    let src = message.Net.Message.src in
    match message.Net.Message.payload with
    | Prepare { b; from_slot } ->
      if m.status = Active then handle_prepare m src b from_slot;
      true
    | Promise { b; accepted; chosen } ->
      if m.status = Active then handle_promise m src b accepted chosen;
      true
    | Nack { promised } ->
      if m.status = Active then handle_nack m promised;
      true
    | Accept { b; slot; e } ->
      if m.status = Active then handle_accept m src b slot e;
      true
    | Accept_ok { b; slot } ->
      if m.status = Active then handle_accept_ok m src b slot;
      true
    | Ring_accept { b; slot; e; acks; commit } ->
      if m.status = Active then handle_ring_accept m b slot e acks commit;
      true
    | Chosen { slot; e } ->
      if m.status = Active then handle_chosen m src slot e;
      true
    | Propose_req { v; ttl } ->
      handle_propose_req m v ttl;
      true
    | Catchup_req { from_slot } ->
      if m.status = Active then handle_catchup_req m src from_slot;
      true
    | Catchup_reply { entries } ->
      if m.status = Active then List.iter (fun (slot, e) -> add_chosen m slot e) entries;
      true
    | _ -> false

  let housekeeping_interval = Sim.Sim_time.span_ms 100.

  let arm_housekeeping m =
    Sim.Process.periodic (Net.Endpoint.process m.ep) ~every:housekeeping_interval (fun () ->
        if m.status = Active then begin
          election_check m;
          flush_pending m;
          (* A prepare round whose messages were lost (peers down at the
             time) would otherwise hang forever: retry with a fresh ballot
             while the detector still points at us. An established leader
             re-asserts its ballot instead — if a higher ballot was chosen
             while we were cut off, the Nacks depose us and trigger a fresh
             election that also recovers anything we missed. *)
          (match (m.leadership, leader_hint m) with
           | Preparing _, Some l when Net.Node_id.equal l m.self ->
             m.leadership <- Follower;
             start_prepare m
           | Leading l, Some _ ->
             broadcast m (Prepare { b = l.l_ballot; from_slot = m.first_unchosen })
           | (Preparing _ | Leading _ | Follower), _ -> ());
          if m.first_unchosen <= m.max_chosen_seen then begin
            match leader_hint m with
            | Some l when not (Net.Node_id.equal l m.self) ->
              send m l (Catchup_req { from_slot = m.first_unchosen })
            | Some _ | None -> ()
          end
        end)

  let create ep ~group ~mode ?fd_config ?(uniform = true) ?(tuning = Bcast_tuning.default)
      ?metrics () =
    if tuning.Bcast_tuning.batch < 1 || tuning.Bcast_tuning.window < 1 then
      invalid_arg "Replicated_log.create: batch and window must be >= 1";
    let metrics = match metrics with Some m -> m | None -> Obs.Registry.create () in
    let self = Net.Endpoint.id ep in
    let group = List.sort_uniq Net.Node_id.compare group in
    if not (List.exists (Net.Node_id.equal self) group) then
      invalid_arg "Replicated_log.create: endpoint not in group";
    let others = List.filter (fun p -> not (Net.Node_id.equal p self)) group in
    let engine = Net.Network.engine (Net.Endpoint.network ep) in
    let storage =
      match mode with
      | Volatile -> None
      | Durable { disk; write_time } ->
        Some
          (Store.Stable_storage.create engine
             ~name:(Net.Node_id.label self ^ ".gclog")
             ~disk ~write_time ())
    in
    let fd = Failure_detector.create ep ~peers:group ?config:fd_config () in
    let m =
      {
        ep;
        engine;
        uniform;
        group;
        others;
        self;
        quorum = View.quorum (List.length group);
        mode;
        storage;
        fd;
        status = Active;
        promised = None;
        accepted = Int_tbl.create 64;
        max_accepted_seen = -1;
        chosen = Int_tbl.create 64;
        first_unchosen = 0;
        next_deliver = 0;
        max_chosen_seen = -1;
        leadership = Follower;
        max_round = 0;
        pending = Queue.create ();
        tuning;
        batch_timer_armed = false;
        deliver_hook = (fun ~slot:_ _ -> ());
        accept_rt = None;
        accept_retransmit_broken = false;
        m_prepares = Obs.Registry.counter metrics "log.prepares";
        m_accepts_sent = Obs.Registry.counter metrics "log.accepts_sent";
        m_accept_resends = Obs.Registry.counter metrics "log.accept_resends";
        m_chosen = Obs.Registry.counter metrics "log.chosen";
        m_batch_size = Obs.Registry.histogram metrics "abcast.batch_size";
        m_window = Obs.Registry.histogram metrics "abcast.window_occupancy";
      }
    in
    Net.Endpoint.add_handler ep (handle_message m);
    Failure_detector.on_change fd (fun () -> election_check m);
    let process = Net.Endpoint.process ep in
    m.accept_rt <-
      Some
        (Retransmit.create ~process
           ~rng:(Sim.Rng.split (Sim.Engine.rng engine))
           ~pending:(fun () ->
             m.status = Active
             &&
             match m.leadership with
             | Leading l -> Int_tbl.length l.l_inflight > 0
             | Preparing _ | Follower -> false)
           ~action:(fun () -> resend_inflight m)
           ());
    Sim.Process.on_kill process (fun () -> handle_kill m);
    Sim.Process.on_restart process (fun () ->
        handle_restart m;
        arm_housekeeping m;
        Option.iter Retransmit.arm m.accept_rt);
    arm_housekeeping m;
    Option.iter Retransmit.arm m.accept_rt;
    (* Defer the first election until every member of the run is built. *)
    Sim.Process.after process (Sim.Sim_time.span_ms 1.) (fun () -> election_check m);
    m
end
