type config = {
  base : Sim.Sim_time.span;
  cap : Sim.Sim_time.span;
  multiplier : float;
  jitter : float;
}

let default =
  {
    base = Sim.Sim_time.span_ms 100.;
    cap = Sim.Sim_time.span_ms 800.;
    multiplier = 2.;
    jitter = 0.1;
  }

type t = {
  config : config;
  process : Sim.Process.t;
  rng : Sim.Rng.t;
  pending : unit -> bool;
  action : unit -> unit;
  mutable interval : Sim.Sim_time.span;
  (* Arming or reporting progress bumps the epoch; ticks from older epochs
     find themselves stale and die, so at most one live timer chain exists
     per driver. *)
  mutable epoch : int;
}

let create ?(config = default) ~process ~rng ~pending ~action () =
  if config.multiplier < 1. then invalid_arg "Retransmit.create: multiplier < 1";
  if config.jitter < 0. then invalid_arg "Retransmit.create: negative jitter";
  { config; process; rng; pending; action; interval = config.base; epoch = 0 }

let current_interval t = t.interval

let span_scale s f = Sim.Sim_time.span_us (int_of_float (float_of_int (Sim.Sim_time.span_to_us s) *. f))

let span_min a b =
  if Sim.Sim_time.span_to_us a <= Sim.Sim_time.span_to_us b then a else b

let jittered t span =
  if t.config.jitter <= 0. then span
  else span_scale span (1. +. Sim.Rng.float t.rng t.config.jitter)

let rec schedule t epoch =
  Sim.Process.after t.process (jittered t t.interval) (fun () ->
      if epoch = t.epoch then begin
        (if t.pending () then begin
           t.action ();
           t.interval <- span_min t.config.cap (span_scale t.interval t.config.multiplier)
         end
         else t.interval <- t.config.base);
        schedule t epoch
      end)

let restart_chain t =
  t.epoch <- t.epoch + 1;
  t.interval <- t.config.base;
  schedule t t.epoch

let arm t = restart_chain t
let progress t = restart_chain t
