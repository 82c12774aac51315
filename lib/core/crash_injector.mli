(** Fault injection schedules.

    Thin helpers for scripting crash/recovery patterns against a
    {!System.t} — delays are relative to "now" at scheduling time — plus a
    random crash storm for robustness testing. The named experiment
    schedules (Fig. 5, Tables 2/3) live in the harness, built from these. *)

val after : System.t -> Sim.Sim_time.span -> (unit -> unit) -> unit
(** Run a thunk at [now + span]. *)

val crash_at : System.t -> after:Sim.Sim_time.span -> int -> unit
val recover_at : System.t -> after:Sim.Sim_time.span -> int -> unit

val crash_storm :
  System.t ->
  rng:Sim.Rng.t ->
  duration:Sim.Sim_time.span ->
  max_down:int ->
  mean_up:Sim.Sim_time.span ->
  mean_down:Sim.Sim_time.span ->
  unit
(** Randomly crash and recover servers for [duration]: each server stays up
    an exponential [mean_up] then, if fewer than [max_down] servers are
    currently down, crashes for an exponential [mean_down]. With
    [max_down < quorum] the group never fails.

    The caller-supplied [rng] is {!Sim.Rng.split} once per server before
    anything is scheduled, and each server draws only from its own stream.
    A server's crash/recovery instants therefore depend on nothing but the
    seed and its own index — not on how the servers' events interleave —
    so a storm can be re-executed independently (e.g. while shrinking a
    failing schedule, or with one server perturbed) without moving every
    other server's schedule. The pre-fix behaviour drew from one shared
    stream in event order, which made storms unreplayable under any
    perturbation. *)
