(** Span recorder for Chrome trace-event export.

    Hooks call {!complete}/{!instant} with [Sim_time] instants; a tracer
    created with [~enabled:false] (the default everywhere tracing was not
    requested) reduces each call to one branch and records nothing.
    Events are returned in append order, which is deterministic for a
    single-engine simulation. *)

type phase = Complete | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  tid : int;
  ts_us : int;
  dur_us : int;  (** 0 for [Instant] *)
  args : (string * string) list;
}

type t

val create : enabled:bool -> unit -> t
val enabled : t -> bool

(** Record a completed span starting at [ts] lasting [dur]. *)
val complete :
  t ->
  name:string ->
  cat:string ->
  tid:int ->
  ts:Sim.Sim_time.t ->
  dur:Sim.Sim_time.span ->
  ?args:(string * string) list ->
  unit ->
  unit

(** {!complete} with the one argument [("tx", string_of_int tx)], built only
    when the tracer is enabled: on a disabled tracer a per-transaction span
    allocates nothing. *)
val complete_tx :
  t ->
  name:string ->
  cat:string ->
  tid:int ->
  ts:Sim.Sim_time.t ->
  dur:Sim.Sim_time.span ->
  int ->
  unit

(** Record a point event at [ts]. *)
val instant :
  t ->
  name:string ->
  cat:string ->
  tid:int ->
  ts:Sim.Sim_time.t ->
  ?args:(string * string) list ->
  unit ->
  unit

(** Recorded events in append order. *)
val events : t -> event list
