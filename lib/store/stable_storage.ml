type config = { group_commit : bool }

let default_config = { group_commit = true }

type 'a pending = { record : 'a; on_durable : unit -> unit }

type 'a t = {
  (* engine and name are never read on the hot path; they identify the log
     when a simulation state is inspected post-mortem. *)
  engine : Sim.Engine.t; [@warning "-69"]
  name : string; [@warning "-69"]
  disk : Sim.Resource.t;
  write_time : unit -> Sim.Sim_time.span;
  config : config;
  mutable durable_rev : 'a list;
  mutable durable_n : int;
  pending : 'a pending Queue.t;
  mutable flushing : bool;
  (* Crash bumps the epoch so the completion of a lost flush is ignored. *)
  mutable epoch : int;
  mutable flushes : int;
  (* Gray failure: every flush takes [write_factor] times its nominal
     duration. 1.0 is a healthy disk. *)
  mutable write_factor : float;
  (* Fsync lie: while armed, completed flushes report durability (callbacks
     fire, records show up in [durable_records]) but land in [lied_rev],
     which the next crash silently drops. Arming is one-way until that
     crash. *)
  mutable lying : bool;
  mutable lied_rev : 'a list;
  mutable lied_n : int;
  mutable lies_acked : int;
  mutable lies_dropped : int;
  (* Disk full: appends park here instead of entering [pending]; clearing
     the condition releases them in order. Parked records are volatile. *)
  parked : 'a pending Queue.t;
  mutable full : bool;
}

let create engine ~name ~disk ~write_time ?(config = default_config) () =
  {
    engine;
    name;
    disk;
    write_time;
    config;
    durable_rev = [];
    durable_n = 0;
    pending = Queue.create ();
    flushing = false;
    epoch = 0;
    flushes = 0;
    write_factor = 1.0;
    lying = false;
    lied_rev = [];
    lied_n = 0;
    lies_acked = 0;
    lies_dropped = 0;
    parked = Queue.create ();
    full = false;
  }

let flush_duration log =
  let us = Sim.Sim_time.span_to_us (log.write_time ()) in
  let scaled = int_of_float (float_of_int us *. log.write_factor) in
  Sim.Sim_time.span_us (Int.max 1 scaled)

let rec start_flush log =
  if (not log.flushing) && not (Queue.is_empty log.pending) then begin
    log.flushing <- true;
    let batch =
      if log.config.group_commit then begin
        let all = List.of_seq (Queue.to_seq log.pending) in
        Queue.clear log.pending;
        all
      end
      else [ Queue.pop log.pending ]
    in
    let epoch = log.epoch in
    let complete () =
      if log.epoch = epoch then begin
        log.flushing <- false;
        log.flushes <- log.flushes + 1;
        List.iter
          (fun p ->
            if log.lying then begin
              log.lied_rev <- p.record :: log.lied_rev;
              log.lied_n <- log.lied_n + 1;
              log.lies_acked <- log.lies_acked + 1
            end
            else begin
              log.durable_rev <- p.record :: log.durable_rev;
              log.durable_n <- log.durable_n + 1
            end)
          batch;
        start_flush log;
        List.iter (fun p -> p.on_durable ()) batch
      end
    in
    Sim.Resource.request log.disk ~duration:(flush_duration log) complete
  end

let append log record ~on_durable =
  if log.full then Queue.push { record; on_durable } log.parked
  else begin
    Queue.push { record; on_durable } log.pending;
    start_flush log
  end

let append_quiet log record = append log record ~on_durable:(fun () -> ())

let durable_records log =
  (* Everything lied about was appended after everything truly durable
     (lying is one-way until the crash that clears it), so the logical
     order is real records then lied records, each oldest first. *)
  if log.lied_n = 0 then List.rev log.durable_rev
  else List.rev_append log.lied_rev [] |> List.rev_append log.durable_rev

let durable_count log = log.durable_n + log.lied_n

let crash log =
  log.epoch <- log.epoch + 1;
  log.flushing <- false;
  Queue.clear log.pending;
  Queue.clear log.parked;
  if log.lying || log.lied_n > 0 then begin
    log.lies_dropped <- log.lies_dropped + log.lied_n;
    log.lied_rev <- [];
    log.lied_n <- 0;
    log.lying <- false
  end

let flush_count log = log.flushes

let truncate log ~keep =
  let kept = List.filter keep log.durable_rev in
  log.durable_rev <- kept;
  log.durable_n <- List.length kept;
  let kept_lied = List.filter keep log.lied_rev in
  log.lied_rev <- kept_lied;
  log.lied_n <- List.length kept_lied

let set_write_factor log f = log.write_factor <- (if f < 1.0 then 1.0 else f)

let arm_fsync_lie log = log.lying <- true
let fsync_lying log = log.lying
let lies_acked log = log.lies_acked
let lies_dropped log = log.lies_dropped

let set_full log full =
  if log.full && not full then begin
    log.full <- false;
    Queue.transfer log.parked log.pending;
    start_flush log
  end
  else log.full <- full

let is_full log = log.full
let parked_count log = Queue.length log.parked

let tamper_last log f =
  (* Bit-rot targets the newest genuinely durable record; lied records are
     volatile anyway, so tampering them would be unobservable. *)
  match log.durable_rev with
  | [] -> false
  | r :: rest ->
      log.durable_rev <- f r :: rest;
      true

let last_durable log = match log.durable_rev with [] -> None | r :: _ -> Some r
