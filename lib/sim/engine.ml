type t = {
  mutable clock : Sim_time.t;
  queue : (unit -> unit) Event_queue.t;
  root_rng : Rng.t;
  mutable executed : int;
  mutable flushed : int; (* portion of [executed] already added to [total] *)
}

(* Events executed across every engine in the process, including engines
   driven inside worker domains: each engine adds its delta when a [run]
   returns, so per-section events/s can be reported without threading
   engine handles through every experiment. *)
let total = Atomic.make 0

let flush e =
  let delta = e.executed - e.flushed in
  if delta > 0 then begin
    ignore (Atomic.fetch_and_add total delta);
    e.flushed <- e.executed
  end

let global_executed () = Atomic.get total

let create ?(seed = 1L) () =
  {
    clock = Sim_time.zero;
    queue = Event_queue.create ();
    root_rng = Rng.create seed;
    executed = 0;
    flushed = 0;
  }

let now e = e.clock
let rng e = e.root_rng

let schedule_at e ~time f =
  if Sim_time.(time < e.clock) then invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.add_delayed e.queue ~time ~delay:(Sim_time.diff time e.clock) f

let schedule e ~delay f = schedule_at e ~time:(Sim_time.add e.clock delay) f
let pending e = Event_queue.length e.queue

let execute e time action =
  e.clock <- time;
  e.executed <- e.executed + 1;
  action ()

let step e =
  match Event_queue.pop e.queue with
  | None -> false
  | Some (time, action) ->
    execute e time action;
    true

let run ?until e =
  (match until with
  | None -> while step e do () done
  | Some limit ->
    (* The hot loop: an O(1) unboxed peek against the limit, then an
       allocation-free pop — no [option] or tuple per event. *)
    let limit_us = Sim_time.to_us limit in
    let rec loop () =
      let t = Event_queue.next_time_us e.queue in
      if t <= limit_us then begin
        let action = Event_queue.pop_value e.queue in
        execute e (Sim_time.of_us t) action;
        loop ()
      end
      else e.clock <- Sim_time.max e.clock limit
    in
    loop ());
  flush e

let events_executed e = e.executed
