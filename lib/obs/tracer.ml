(* Span recorder for Chrome trace-event export.

   Timestamps come from the caller as [Sim_time.t] — virtual microseconds
   match the trace-event format's native unit, so no conversion or
   wall-clock reading is ever involved. A disabled tracer (the default in
   every simulation) reduces each hook to a single branch. Events are
   kept in append order, which is deterministic for a single engine. *)

type phase = Complete | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  tid : int;
  ts_us : int;
  dur_us : int; (* 0 for Instant *)
  args : (string * string) list;
}

type t = { enabled : bool; mutable events_rev : event list }

let create ~enabled () = { enabled; events_rev = [] }
let enabled t = t.enabled

let complete t ~name ~cat ~tid ~ts ~dur ?(args = []) () =
  if t.enabled then
    t.events_rev <-
      {
        name;
        cat;
        ph = Complete;
        tid;
        ts_us = Sim.Sim_time.to_us ts;
        dur_us = Sim.Sim_time.span_to_us dur;
        args;
      }
      :: t.events_rev

let complete_tx t ~name ~cat ~tid ~ts ~dur tx =
  if t.enabled then complete t ~name ~cat ~tid ~ts ~dur ~args:[ ("tx", string_of_int tx) ] ()

let instant t ~name ~cat ~tid ~ts ?(args = []) () =
  if t.enabled then
    t.events_rev <-
      { name; cat; ph = Instant; tid; ts_us = Sim.Sim_time.to_us ts; dur_us = 0; args }
      :: t.events_rev

let events t = List.rev t.events_rev
