type config = { heartbeat_interval : Sim.Sim_time.span; timeout : Sim.Sim_time.span }

let default_config =
  { heartbeat_interval = Sim.Sim_time.span_ms 10.; timeout = Sim.Sim_time.span_ms 50. }

let light_config =
  { heartbeat_interval = Sim.Sim_time.span_ms 50.; timeout = Sim.Sim_time.span_ms 250. }

type Net.Message.payload += Heartbeat

type t = {
  endpoint : Net.Endpoint.t;
  engine : Sim.Engine.t;
  peers : Net.Node_id.t list;  (* excluding self *)
  config : config;
  (* Indexed by node index: the instant (in us) a peer was last heard
     from, -1 if never. Covers the peers' indices only. *)
  last_heard : int array;
  mutable suspected : Net.Node_id.Set.t;
  (* [trusted]'s answer, recomputed after every change to [suspected]. *)
  mutable trusted_memo : Net.Node_id.t list option;
  mutable change_hooks : (unit -> unit) list;
  mutable changes : int;
}

let set_suspected fd suspected =
  fd.suspected <- suspected;
  fd.trusted_memo <- None

let notify_change fd =
  fd.changes <- fd.changes + 1;
  List.iter (fun f -> f ()) (List.rev fd.change_hooks)

let now_us fd = Sim.Sim_time.to_us (Sim.Engine.now fd.engine)

let heard fd peer =
  let index = Net.Node_id.index peer in
  if index < Array.length fd.last_heard then fd.last_heard.(index) <- now_us fd;
  if Net.Node_id.Set.mem peer fd.suspected then begin
    set_suspected fd (Net.Node_id.Set.remove peer fd.suspected);
    notify_change fd
  end

(* Suspects every peer of [peers] not heard from since [deadline] (or
   never) and not suspected yet; [true] if it suspected one. A toplevel
   loop over the peers, so a tick builds no list and no closure, and the
   set is rebuilt only when a peer times out, which is rare. *)
let rec time_out fd deadline grew = function
  | [] -> grew
  | peer :: rest ->
    let last = fd.last_heard.(Net.Node_id.index peer) in
    if (last < 0 || deadline > last) && not (Net.Node_id.Set.mem peer fd.suspected) then begin
      set_suspected fd (Net.Node_id.Set.add peer fd.suspected);
      time_out fd deadline true rest
    end
    else time_out fd deadline grew rest

let check_timeouts fd =
  let deadline = now_us fd - Sim.Sim_time.span_to_us fd.config.timeout in
  if time_out fd deadline false fd.peers then notify_change fd

let reset_and_start fd =
  Array.fill fd.last_heard 0 (Array.length fd.last_heard) (-1);
  set_suspected fd Net.Node_id.Set.empty;
  (* A fresh start trusts everyone for one full timeout. *)
  let now = now_us fd in
  List.iter (fun p -> fd.last_heard.(Net.Node_id.index p) <- now) fd.peers;
  let process = Net.Endpoint.process fd.endpoint in
  Sim.Process.periodic process ~every:fd.config.heartbeat_interval (fun () ->
      Net.Endpoint.broadcast fd.endpoint ~to_:fd.peers Heartbeat;
      check_timeouts fd)

let create endpoint ~peers ?(config = default_config) () =
  let self = Net.Endpoint.id endpoint in
  let peers = List.filter (fun p -> not (Net.Node_id.equal p self)) peers in
  let fd =
    {
      endpoint;
      engine = Net.Network.engine (Net.Endpoint.network endpoint);
      peers;
      config;
      last_heard =
        Array.make
          (1 + List.fold_left (fun m p -> Int.max m (Net.Node_id.index p)) (-1) peers)
          (-1);
      suspected = Net.Node_id.Set.empty;
      trusted_memo = None;
      change_hooks = [];
      changes = 0;
    }
  in
  (* Observe, not consume: a handler added later still sees heartbeats. *)
  Net.Endpoint.add_handler endpoint (fun message ->
      match message.Net.Message.payload with
      | Heartbeat ->
        heard fd message.Net.Message.src;
        false
      | _ -> false);
  Sim.Process.on_restart (Net.Endpoint.process endpoint) (fun () -> reset_and_start fd);
  reset_and_start fd;
  fd

let suspects fd n = Net.Node_id.Set.mem n fd.suspected
let suspected fd = fd.suspected

let trusted fd =
  match fd.trusted_memo with
  | Some l -> l
  | None ->
    let self = Net.Endpoint.id fd.endpoint in
    let up = List.filter (fun p -> not (Net.Node_id.Set.mem p fd.suspected)) fd.peers in
    let l = List.sort Net.Node_id.compare (self :: up) in
    fd.trusted_memo <- Some l;
    l

let on_change fd f = fd.change_hooks <- f :: fd.change_hooks
let changes fd = fd.changes
