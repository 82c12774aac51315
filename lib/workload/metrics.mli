(** Run metrics.

    Collects what the paper's evaluation reports: client-observed response
    times (ms), commit/abort counts, and the derived throughput and abort
    rate. A warm-up boundary excludes start-up transients from the
    series. *)

type t

val create : Sim.Engine.t -> t

val set_warmup : t -> Sim.Sim_time.t -> unit
(** Samples recorded before this instant are ignored. *)

val record : t -> submitted:Sim.Sim_time.t -> Db.Testable_tx.outcome -> unit
(** Books one client answer arriving now for a transaction submitted at
    [submitted]. The outcome counts only if it arrives after the warm-up
    boundary; the response time counts only if the transaction was also
    submitted after it. *)

val responses : t -> Sim.Stats.series
val mean_response_ms : t -> float
val p95_response_ms : t -> float
val commits : t -> int
val aborts : t -> int

val abort_rate : t -> float
(** Aborts over decided transactions; [nan] when nothing decided. *)

val throughput_tps : t -> since:Sim.Sim_time.t -> float
(** Committed transactions per second of simulated time since [since]. *)
