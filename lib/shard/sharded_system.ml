open Groupsafe
module St = Sim.Sim_time

type config = {
  shards : int;
  seed : int64;
  params : Workload.Params.t;
  technique : System.technique;
  tuning : Gcs.Bcast_tuning.t option;
  fd_config : Gcs.Failure_detector.config option;
  trace_enabled : bool;
}

(* The cross-shard link latency, which is also the window length
   (lookahead), and the 2PC coordinator's wait for votes: 200 links. *)
let link = St.span_ms 2.
let vote_timeout = St.span_us (St.span_to_us link * 200)

let config ?(seed = 1L) ?tuning ?fd_config ?(trace_enabled = true) ~shards ~params technique =
  if shards < 1 then invalid_arg "Sharded_system.config: need at least one shard";
  { shards; seed; params; technique; tuning; fd_config; trace_enabled }

type gack = {
  g_tx : Db.Transaction.id;
  g_outcome : Db.Testable_tx.outcome;
  g_at : St.t;
  g_update : bool;
  g_cross : bool;
  g_write_parts : (int * Db.Transaction.id) list;
}

(* Sub-transaction ids live in the negative range, disjoint from the
   workload's non-negative ids: one probe and one write id per global
   transaction, shared across its participant shards (each shard is its
   own System, so the same id on two shards never collides). *)
let probe_id gtx = -((2 * gtx) + 1)
let write_id gtx = -((2 * gtx) + 2)

(* 2PC coordinator state for one cross-shard transaction. Owned by its
   home shard: every field is only ever read or written from that shard's
   domain (vote/ack handlers are delivered as events on its engine). *)
type coord = {
  c_tx : Db.Transaction.t;
  c_parts : int list;
  c_delegate : int;  (** local server index used for every sub-transaction. *)
  c_submitted : St.t;
  c_on_response : (Db.Testable_tx.outcome -> unit) option;
  mutable c_votes : int;
  mutable c_abort : bool;
  mutable c_decided : bool;
  mutable c_write_pending : int;
  mutable c_wedged : bool;
  mutable c_write_parts : (int * Db.Transaction.id) list;
}

type payload =
  | Prepare of { p_gtx : int; p_probe : Db.Transaction.t; p_home : int; p_delegate : int }
  | Vote of { v_gtx : int; v_commit : bool }
  | Decision of { d_gtx : int; d_home : int; d_write : Db.Transaction.t; d_delegate : int }
  | Dec_ack of { a_gtx : int; a_shard : int; a_committed : bool }

type envelope = { e_src : int; e_dst : int; e_at : St.t; e_seq : int; e_payload : payload }

type xcounters = {
  x_fast : Obs.Registry.counter;
  x_cross : Obs.Registry.counter;
  x_commit : Obs.Registry.counter;
  x_abort : Obs.Registry.counter;
  x_timeout : Obs.Registry.counter;
  x_probe : Obs.Registry.counter;
  x_wsub : Obs.Registry.counter;
  x_wfail : Obs.Registry.counter;
  x_drop : Obs.Registry.counter;
}

let make_x reg =
  {
    x_fast = Obs.Registry.counter reg "xshard.fast_path";
    x_cross = Obs.Registry.counter reg "xshard.cross_submitted";
    x_commit = Obs.Registry.counter reg "xshard.cross_committed";
    x_abort = Obs.Registry.counter reg "xshard.cross_aborted";
    x_timeout = Obs.Registry.counter reg "xshard.vote_timeout";
    x_probe = Obs.Registry.counter reg "xshard.probe_subs";
    x_wsub = Obs.Registry.counter reg "xshard.write_subs";
    x_wfail = Obs.Registry.counter reg "xshard.write_sub_failed";
    x_drop = Obs.Registry.counter reg "xshard.link_dropped";
  }

type shard_state = {
  ss_sys : System.t;
  ss_metrics : Workload.Metrics.t;
  ss_xreg : Obs.Registry.t;
  ss_x : xcounters;
  ss_coords : coord Analysis.Int_tbl.t;
  mutable ss_outbox : envelope list;  (** newest first; drained at each exchange. *)
  mutable ss_seq : int;
  mutable ss_gacks : gack list;  (** newest first. *)
}

type t = {
  cfg : config;
  map : Shard_map.t;
  states : shard_state array;
  (* Blocked cross-shard links, keyed (src, dst). Only touched between
     windows (from [on_exchange] or between runs), never from a shard
     domain, so lookups during [drain] race with nothing. *)
  blocked : (int * int, unit) Hashtbl.t;
}

let shard_seed seed i = Int64.add seed (Int64.mul (Int64.of_int i) 1_000_003L)

let create cfg =
  let map = Shard_map.create ~items:cfg.params.Workload.Params.items ~shards:cfg.shards in
  let states =
    Array.init cfg.shards (fun i ->
        let sys =
          System.create ~seed:(shard_seed cfg.seed i) ~params:cfg.params
            ?fd_config:cfg.fd_config ?tuning:cfg.tuning ~trace_enabled:cfg.trace_enabled
            cfg.technique
        in
        let xreg = Obs.Registry.create () in
        {
          ss_sys = sys;
          ss_metrics = Workload.Metrics.create (System.engine sys);
          ss_xreg = xreg;
          ss_x = make_x xreg;
          ss_coords = Analysis.Int_tbl.create 64;
          ss_outbox = [];
          ss_seq = 0;
          ss_gacks = [];
        })
  in
  { cfg; map; states; blocked = Hashtbl.create 8 }

let shards t = t.cfg.shards
let servers_per_shard t = t.cfg.params.Workload.Params.servers
let n_servers t = shards t * servers_per_shard t
let map t = t.map
let sys t i = t.states.(i).ss_sys
let engine_of t i = System.engine t.states.(i).ss_sys
let metrics t i = t.states.(i).ss_metrics
let now t = Sim.Engine.now (engine_of t 0)

let set_warmup t at = Array.iter (fun s -> Workload.Metrics.set_warmup s.ss_metrics at) t.states

let block_link t ~src ~dst = Hashtbl.replace t.blocked (src, dst) ()
let clear_blocked t = Hashtbl.reset t.blocked

(* ---- cross-shard messaging ---- *)

let post t src ~dst payload =
  let s = t.states.(src) in
  let e =
    {
      e_src = src;
      e_dst = dst;
      e_at = Sim.Engine.now (System.engine s.ss_sys);
      e_seq = s.ss_seq;
      e_payload = payload;
    }
  in
  s.ss_seq <- s.ss_seq + 1;
  s.ss_outbox <- e :: s.ss_outbox

let committed o = Db.Testable_tx.outcome_equal o Db.Testable_tx.Committed

(* Book one client answer on the shard that gave it: the global ack the
   atomicity audit reads, and the shard's workload metrics. *)
let book s tx ~submitted ~cross ~write_parts outcome =
  s.ss_gacks <-
    {
      g_tx = tx.Db.Transaction.id;
      g_outcome = outcome;
      g_at = Sim.Engine.now (System.engine s.ss_sys);
      g_update = Db.Transaction.is_update tx;
      g_cross = cross;
      g_write_parts = write_parts;
    }
    :: s.ss_gacks;
  Workload.Metrics.record s.ss_metrics ~submitted outcome

let rec deliver t dst payload =
  match payload with
  | Prepare { p_gtx; p_probe; p_home; p_delegate } ->
    handle_prepare t dst ~gtx:p_gtx ~probe:p_probe ~home:p_home ~delegate:p_delegate
  | Vote { v_gtx; v_commit } -> handle_vote t dst ~gtx:v_gtx ~commit:v_commit
  | Decision { d_gtx; d_home; d_write; d_delegate } ->
    handle_decision t dst ~gtx:d_gtx ~home:d_home ~write:d_write ~delegate:d_delegate
  | Dec_ack { a_gtx; a_shard; a_committed } ->
    handle_dec_ack t dst ~gtx:a_gtx ~shard:a_shard ~acked:a_committed

(* A message to self never crosses a link: handle it inline (we are
   already on the destination shard's domain). *)
and send t ~src ~dst payload = if src = dst then deliver t dst payload else post t src ~dst payload

(* Phase 1 on a participant: certify the global transaction's footprint
   through this shard's own abcast stream as a read-only probe. The probe
   commits only if certification accepts it — its outcome is the vote. A
   dead delegate silently swallows the submission (like any client
   request), which surfaces at the coordinator as a vote timeout. *)
and handle_prepare t dst ~gtx ~probe ~home ~delegate =
  let s = t.states.(dst) in
  Obs.Registry.inc s.ss_x.x_probe;
  System.submit s.ss_sys ~delegate
    ~on_response:(fun o -> send t ~src:dst ~dst:home (Vote { v_gtx = gtx; v_commit = committed o }))
    probe

and handle_vote t home ~gtx ~commit =
  match Analysis.Int_tbl.find_opt t.states.(home).ss_coords gtx with
  | None -> ()
  | Some c ->
    if not c.c_decided then begin
      if not commit then c.c_abort <- true;
      c.c_votes <- c.c_votes - 1;
      if c.c_votes = 0 then decide t home gtx c
    end

and decide t home gtx c =
  c.c_decided <- true;
  let s = t.states.(home) in
  if c.c_abort then begin
    Obs.Registry.inc s.ss_x.x_abort;
    finish t home c Db.Testable_tx.Aborted
  end
  else begin
    (* Phase 2: blind-write sub-transactions on every shard the global
       transaction writes. Blind writes have an empty read set, so each
       shard's certification accepts them unconditionally — the decision
       cannot be half-applied by a certification race. *)
    let wparts =
      List.filter_map
        (fun p ->
          match
            List.filter (fun (i, _) -> Shard_map.shard_of_key t.map i = p)
              (Db.Transaction.writes c.c_tx)
          with
          | [] -> None
          | ws -> Some (p, ws))
        c.c_parts
    in
    match wparts with
    | [] ->
      Obs.Registry.inc s.ss_x.x_commit;
      finish t home c Db.Testable_tx.Committed
    | wparts ->
      c.c_write_pending <- List.length wparts;
      List.iter
        (fun (p, ws) ->
          let wtx =
            Db.Transaction.make ~id:(write_id gtx) ~client:c.c_tx.Db.Transaction.client
              (List.map (fun (i, v) -> Db.Op.Write (i, v)) ws)
          in
          send t ~src:home ~dst:p
            (Decision { d_gtx = gtx; d_home = home; d_write = wtx; d_delegate = c.c_delegate }))
        wparts
  end

and handle_decision t dst ~gtx ~home ~write ~delegate =
  let s = t.states.(dst) in
  Obs.Registry.inc s.ss_x.x_wsub;
  System.submit s.ss_sys ~delegate
    ~on_response:(fun o ->
      send t ~src:dst ~dst:home (Dec_ack { a_gtx = gtx; a_shard = dst; a_committed = committed o }))
    write

and handle_dec_ack t home ~gtx ~shard ~acked =
  match Analysis.Int_tbl.find_opt t.states.(home).ss_coords gtx with
  | None -> ()
  | Some c ->
    if acked then c.c_write_parts <- (shard, write_id gtx) :: c.c_write_parts
    else begin
      (* A write sub-transaction refused (e.g. its shard's disk is full):
         the global transaction wedges unacknowledged — never telling the
         client "committed" is always safe, and the liveness of the client
         is the timeout's concern, not the safety oracle's. *)
      c.c_wedged <- true;
      Obs.Registry.inc t.states.(home).ss_x.x_wfail
    end;
    c.c_write_pending <- c.c_write_pending - 1;
    if c.c_write_pending = 0 && not c.c_wedged then begin
      Obs.Registry.inc t.states.(home).ss_x.x_commit;
      finish t home c Db.Testable_tx.Committed
    end

(* The global acknowledgement: only here is the client told anything, and
   a Committed answer means every participating shard acknowledged its
   write sub-transaction. The coordinator leaves the table: a vote or
   acknowledgement arriving later finds nothing and does nothing. *)
and finish t home c outcome =
  Analysis.Int_tbl.remove t.states.(home).ss_coords c.c_tx.Db.Transaction.id;
  book t.states.(home) c.c_tx ~submitted:c.c_submitted ~cross:true
    ~write_parts:(List.sort (fun (a, _) (b, _) -> Int.compare a b) c.c_write_parts)
    outcome;
  match c.c_on_response with Some f -> f outcome | None -> ()

(* ---- submission ---- *)

let submit t ?on_response ~delegate tx =
  if tx.Db.Transaction.id < 0 then
    invalid_arg "Sharded_system.submit: negative ids are reserved for sub-transactions";
  let sps = servers_per_shard t in
  if delegate < 0 || delegate >= n_servers t then
    invalid_arg "Sharded_system.submit: delegate out of range";
  let local = delegate mod sps in
  match Shard_map.shards_of_tx t.map tx with
  | [] -> invalid_arg "Sharded_system.submit: transaction touches no item"
  | [ shard ] ->
    (* Single-shard fast path: straight into the owning shard's System,
       exactly as an unsharded submission — the 2PC machinery never sees
       it. A delegate on another shard is re-homed to the same local index
       on the owning shard (partial replication: only the owner holds the
       data). *)
    let s = t.states.(shard) in
    Obs.Registry.inc s.ss_x.x_fast;
    let submitted = Sim.Engine.now (System.engine s.ss_sys) in
    System.submit s.ss_sys ~delegate:local
      ~on_response:(fun o ->
        book s tx ~submitted ~cross:false ~write_parts:[] o;
        match on_response with Some f -> f o | None -> ())
      tx
  | parts ->
    let home0 = delegate / sps in
    let home = if List.mem home0 parts then home0 else List.hd parts in
    let s = t.states.(home) in
    Obs.Registry.inc s.ss_x.x_cross;
    let c =
      {
        c_tx = tx;
        c_parts = parts;
        c_delegate = local;
        c_submitted = Sim.Engine.now (System.engine s.ss_sys);
        c_on_response = on_response;
        c_votes = List.length parts;
        c_abort = false;
        c_decided = false;
        c_write_pending = 0;
        c_wedged = false;
        c_write_parts = [];
      }
    in
    Analysis.Int_tbl.replace s.ss_coords tx.Db.Transaction.id c;
    Sim.Engine.schedule (System.engine s.ss_sys) ~delay:vote_timeout (fun () ->
        if not c.c_decided then begin
          Obs.Registry.inc s.ss_x.x_timeout;
          c.c_abort <- true;
          decide t home tx.Db.Transaction.id c
        end);
    let footprint =
      List.sort_uniq Int.compare (Db.Transaction.read_set tx @ Db.Transaction.write_set tx)
    in
    List.iter
      (fun p ->
        let items = List.filter (fun i -> Shard_map.shard_of_key t.map i = p) footprint in
        let probe =
          Db.Transaction.make ~id:(probe_id tx.Db.Transaction.id)
            ~client:tx.Db.Transaction.client
            (List.map (fun i -> Db.Op.Read i) items)
        in
        send t ~src:home ~dst:p
          (Prepare { p_gtx = tx.Db.Transaction.id; p_probe = probe; p_home = home; p_delegate = local }))
      parts

(* ---- windowed parallel execution ---- *)

let compare_envelope a b =
  let c = Int.compare a.e_dst b.e_dst in
  if c <> 0 then c
  else
    let c = St.compare a.e_at b.e_at in
    if c <> 0 then c
    else
      let c = Int.compare a.e_src b.e_src in
      if c <> 0 then c else Int.compare a.e_seq b.e_seq

(* Move every outbox envelope onto its destination engine, one link
   latency after it was sent. Runs between windows on the coordinating
   domain with every shard engine idle. The sort key (dst, at, src, seq)
   is a total order over the window's envelopes, so insertion order into
   the destination heaps never depends on the worker count. *)
let drain t =
  let all = Array.fold_left (fun acc s -> List.rev_append s.ss_outbox acc) [] t.states in
  Array.iter (fun s -> s.ss_outbox <- []) t.states;
  List.iter
    (fun e ->
      if Hashtbl.mem t.blocked (e.e_src, e.e_dst) then
        Obs.Registry.inc t.states.(e.e_dst).ss_x.x_drop
      else begin
        let eng = engine_of t e.e_dst in
        let time = St.max (St.add e.e_at link) (Sim.Engine.now eng) in
        Sim.Engine.schedule_at eng ~time (fun () -> deliver t e.e_dst e.e_payload)
      end)
    (List.sort compare_envelope all)

let run_for ?jobs ?on_exchange t span =
  let t0 = now t in
  Array.iter
    (fun s ->
      if not (St.equal (Sim.Engine.now (System.engine s.ss_sys)) t0) then
        invalid_arg "Sharded_system.run_for: shard clocks out of lockstep")
    t.states;
  let span_us = St.span_to_us span in
  if span_us > 0 then begin
    let w_us = St.span_to_us link in
    let horizon = St.add t0 span in
    let windows = ((span_us + w_us) - 1) / w_us in
    (* Conservative lookahead: every window is at most one link latency
       long and every cross-shard envelope takes at least one link latency,
       so an envelope sent during window w cannot be due before window
       w+1 opens — exchanging at the barrier never delivers into a shard's
       past, at any worker count. *)
    let until_of w = St.min horizon (St.add t0 (St.span_us (w_us * (w + 1)))) in
    Parallel.Windowed.run ?jobs ~tasks:t.cfg.shards ~windows
      ~step:(fun ~task ~window -> Sim.Engine.run ~until:(until_of window) (engine_of t task))
      ~exchange:(fun ~window ->
        (match on_exchange with Some f -> f ~window ~until:(until_of window) | None -> ());
        drain t)
      ()
  end

(* ---- books and registries ---- *)

let open_coordinators t =
  Array.fold_left (fun n s -> n + Analysis.Int_tbl.length s.ss_coords) 0 t.states

let acked t =
  let all = Array.fold_left (fun acc s -> List.rev_append s.ss_gacks acc) [] t.states in
  List.sort
    (fun a b ->
      let c = St.compare a.g_at b.g_at in
      if c <> 0 then c else Int.compare a.g_tx b.g_tx)
    all

let merged_registry t =
  let merged = Obs.Registry.create () in
  Array.iteri
    (fun i s ->
      let prefix = Printf.sprintf "shard.%d." i in
      Obs.Registry.merge_prefixed ~into:merged ~prefix (System.obs_registry s.ss_sys);
      Obs.Registry.merge_prefixed ~into:merged ~prefix s.ss_xreg)
    t.states;
  merged

let aggregate_registry t =
  let merged = Obs.Registry.create () in
  Array.iter
    (fun s ->
      Obs.Registry.merge_into ~into:merged (System.obs_registry s.ss_sys);
      Obs.Registry.merge_into ~into:merged s.ss_xreg)
    t.states;
  merged
