type config = {
  transit : Sim.Sim_time.span;
  cpu_per_op : Sim.Sim_time.span;
  drop_probability : float;
}

let lan_config =
  { transit = Sim.Sim_time.span_ms 0.07; cpu_per_op = Sim.Sim_time.span_ms 0.07; drop_probability = 0. }

type registration = {
  process : Sim.Process.t;
  cpu : Sim.Resource.t option;
  handler : Message.t -> unit;
}

type t = {
  engine : Sim.Engine.t;
  config : config;
  rng : Sim.Rng.t;
  (* Indexed by node index; grown by [register]. *)
  mutable nodes : registration option array;
  (* Partition as a map from node index to group number; unlisted nodes all
     share the implicit group [-1]. *)
  mutable groups : int Analysis.Int_tbl.t option;
  blocked_links : (int * int, unit) Hashtbl.t;
  (* Overrides config.drop_probability while set (the nemesis loss window). *)
  mutable drop_override : float option;
  (* Destinations whose next transmitted message is delivered twice. *)
  duplicate_next_to : unit Analysis.Int_tbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
}

let create engine config =
  {
    engine;
    config;
    rng = Sim.Rng.split (Sim.Engine.rng engine);
    nodes = [||];
    groups = None;
    blocked_links = Hashtbl.create 8;
    drop_override = None;
    duplicate_next_to = Analysis.Int_tbl.create 4;
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
  }

let engine net = net.engine

let registration net index = if index < Array.length net.nodes then net.nodes.(index) else None

let register net ~id ~process ?cpu handler =
  let index = Node_id.index id in
  if Option.is_some (registration net index) then
    invalid_arg (Format.asprintf "Network.register: %a already registered" Node_id.pp id);
  let len = Array.length net.nodes in
  if index >= len then begin
    let nodes = Array.make (Int.max (index + 1) (2 * len)) None in
    Array.blit net.nodes 0 nodes 0 len;
    net.nodes <- nodes
  end;
  net.nodes.(index) <- Some { process; cpu; handler }

let group_of groups index =
  match Analysis.Int_tbl.find_opt groups index with Some g -> g | None -> -1

let link_key src dst =
  let a = Node_id.index src and b = Node_id.index dst in
  (min a b, max a b)

(* Every delivery asks this. With no partition installed and no link
   blocked (the common case) it answers without a lookup, and without
   building and hashing the link key. *)
let reachable net src dst =
  (match net.groups with
  | None -> true
  | Some groups -> group_of groups (Node_id.index src) = group_of groups (Node_id.index dst))
  && (Hashtbl.length net.blocked_links = 0
     || not (Hashtbl.mem net.blocked_links (link_key src dst)))

let partition net groups =
  let tbl = Analysis.Int_tbl.create 16 in
  List.iteri
    (fun g nodes -> List.iter (fun n -> Analysis.Int_tbl.replace tbl (Node_id.index n) g) nodes)
    groups;
  net.groups <- Some tbl

(* A heal restores full connectivity: the partition goes away and so do
   individually blocked links. Schedule replay depends on this — a [Heal]
   event must leave no residual unreachability behind, whichever primitive
   installed it. Use [unblock_link] for link-granular repair. *)
let heal net =
  net.groups <- None;
  Hashtbl.reset net.blocked_links

let block_link net a b = Hashtbl.replace net.blocked_links (link_key a b) ()
let unblock_link net a b = Hashtbl.remove net.blocked_links (link_key a b)

let set_drop net p =
  (match p with
  | Some p when p < 0. || p > 1. -> invalid_arg "Network.set_drop: probability outside [0, 1]"
  | Some _ | None -> ());
  net.drop_override <- p

let drop_probability net =
  match net.drop_override with Some p -> p | None -> net.config.drop_probability

let duplicate_next net dst = Analysis.Int_tbl.replace net.duplicate_next_to (Node_id.index dst) ()

(* Delivery at the receiver: check the receiver is up and reachable at the
   delivery instant, charge receive CPU if configured, then hand over. *)
let deliver net message =
  let dst = Node_id.index message.Message.dst in
  match registration net dst with
  | None -> net.dropped <- net.dropped + 1
  | Some reg ->
    if (not (Sim.Process.alive reg.process)) || not (reachable net message.src message.dst) then
      net.dropped <- net.dropped + 1
    else begin
      let hand_over =
        Sim.Process.guard reg.process (fun () ->
            net.delivered <- net.delivered + 1;
            reg.handler message)
      in
      match reg.cpu with
      | None -> hand_over ()
      | Some cpu -> Sim.Resource.request cpu ~duration:net.config.cpu_per_op hand_over
    end

(* A copy's fate at send time: it counts as sent, then is lost with the
   drop probability in force. *)
let lost net =
  net.sent <- net.sent + 1;
  Sim.Rng.bool net.rng (drop_probability net)
  && begin
    net.dropped <- net.dropped + 1;
    true
  end

(* A marked destination receives its next transmitted message twice: the
   duplicate trails one extra transit behind the original, like a
   retransmitted frame overtaken by the repaired path. The mark is
   consumed even if the copies are later dropped at delivery (receiver
   down, partition). *)
let take_duplicate net dst =
  let dst_index = Node_id.index dst in
  Analysis.Int_tbl.length net.duplicate_next_to > 0
  && Analysis.Int_tbl.mem net.duplicate_next_to dst_index
  && begin
    Analysis.Int_tbl.remove net.duplicate_next_to dst_index;
    net.duplicated <- net.duplicated + 1;
    true
  end

let deliver_duplicate net message =
  Sim.Engine.schedule net.engine
    ~delay:(Sim.Sim_time.span_add net.config.transit net.config.transit)
    (fun () -> deliver net message)

let transmit net ~src ~dst payload =
  if not (lost net) then begin
    let message = { Message.src; dst; sent_at = Sim.Engine.now net.engine; payload } in
    Sim.Engine.schedule net.engine ~delay:net.config.transit (fun () -> deliver net message);
    if take_duplicate net dst then deliver_duplicate net message
  end

(* One hardware multicast. Each copy is counted, draws its loss and
   consumes its duplicate mark on its own, in [to_] order, as a send
   would; the surviving copies then land in one event, delivered in [to_]
   order, and each duplicate follows as its own event one transit later.
   This runs exactly what one event per copy ran: those events shared one
   instant and were queued back to back (only duplicates came between
   them, and those land a transit later), so they popped consecutively;
   whatever a delivery schedules pops after the last copy either way; and
   each [deliver] still checks its receiver's liveness and reachability
   after the previous copy's handler ran. *)
let multicast net ~src ~to_ payload =
  let sent_at = Sim.Engine.now net.engine in
  let rec admit copies duplicates = function
    | dst :: rest ->
      if lost net then admit copies duplicates rest
      else begin
        let message = { Message.src; dst; sent_at; payload } in
        admit (message :: copies)
          (if take_duplicate net dst then message :: duplicates else duplicates)
          rest
      end
    | [] ->
      (match List.rev copies with
      | [] -> ()
      | copies ->
        Sim.Engine.schedule net.engine ~delay:net.config.transit (fun () ->
            List.iter (deliver net) copies));
      List.iter (deliver_duplicate net) (List.rev duplicates)
  in
  admit [] [] to_

(* Sends are charged to the sender's CPU (one charge per send or per
   broadcast) and silently vanish when the sender is already down. *)
let with_sender_cpu net ~src action =
  match registration net (Node_id.index src) with
  | None -> action ()
  | Some reg ->
    if Sim.Process.alive reg.process then begin
      match reg.cpu with
      | None -> action ()
      | Some cpu ->
        Sim.Resource.request cpu ~duration:net.config.cpu_per_op (Sim.Process.guard reg.process action)
    end

let send net ~src ~dst payload = with_sender_cpu net ~src (fun () -> transmit net ~src ~dst payload)

let broadcast net ~src ~to_ payload =
  with_sender_cpu net ~src (fun () -> multicast net ~src ~to_ payload)

let messages_sent net = net.sent
let messages_delivered net = net.delivered
let messages_dropped net = net.dropped
let messages_duplicated net = net.duplicated
