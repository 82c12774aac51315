(** Run metrics.

    Collects what the paper's evaluation reports: client-observed response
    times (ms), commit/abort counts, and the derived throughput and abort
    rate. A warm-up boundary excludes start-up transients from the
    series. *)

type t

val create : Sim.Engine.t -> t

val set_warmup : t -> Sim.Sim_time.t -> unit
(** Samples recorded before this instant are ignored. *)

val record_response : t -> submitted:Sim.Sim_time.t -> unit
(** Records one client response with the given submission instant; the
    response time is measured to "now". *)

val record_commit : t -> unit
val record_abort : t -> unit

val responses : t -> Sim.Stats.series
val mean_response_ms : t -> float
val p95_response_ms : t -> float
val commits : t -> int
val aborts : t -> int

val abort_rate : t -> float
(** Aborts over decided transactions; [nan] when nothing decided. *)

val throughput_tps : t -> since:Sim.Sim_time.t -> float
(** Committed transactions per second of simulated time since [since]. *)
