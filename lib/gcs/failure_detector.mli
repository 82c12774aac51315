(** Heartbeat failure detector.

    Every member periodically broadcasts a heartbeat to its peers; a peer
    unheard from for [timeout] becomes suspected. In the simulated LAN
    (bounded transit, no false timeouts when [timeout] exceeds the heartbeat
    interval plus transit) the detector is eventually perfect, which is all
    the ordering protocol needs for liveness. Safety never depends on it.

    Volatile: a crash clears the detector's state; on restart it starts
    afresh and re-suspects everyone until heartbeats arrive. Heartbeats
    carry no detector id, so an endpoint runs one detector: the ordering
    log's ({!Replicated_log.Make.detector}), to which the layers above
    subscribe. *)

type config = {
  heartbeat_interval : Sim.Sim_time.span;
  timeout : Sim.Sim_time.span;  (** must exceed [heartbeat_interval]. *)
}

val default_config : config
(** 10 ms heartbeats, 50 ms timeout — negligible load at Table 4 scale. *)

val light_config : config
(** 50 ms heartbeats, 250 ms timeout: the performance studies and the
    checkers, where 10 ms heartbeats would dominate the event count. *)

type t

val create : Net.Endpoint.t -> peers:Net.Node_id.t list -> ?config:config -> unit -> t
(** [create ep ~peers ()] attaches a detector for [peers] (the member list
    excluding or including self; self is never suspected) to endpoint
    [ep]. Starts beating immediately and restarts itself after recoveries. *)

val suspects : t -> Net.Node_id.t -> bool
(** [suspects fd n] is [true] when [n] is currently suspected. Self is
    never suspected. *)

val suspected : t -> Net.Node_id.Set.t
(** The current suspect set. Freshly (re)started detectors suspect nobody
    until the first timeout elapses. *)

val trusted : t -> Net.Node_id.t list
(** Peers (plus self) currently not suspected, sorted by index. *)

val on_change : t -> (unit -> unit) -> unit
(** [on_change fd f] calls [f] whenever the suspect set changes. *)

val changes : t -> int
(** Number of suspect-set transitions (suspicions raised or cleared) this
    detector has observed since creation. Evidence counter for the
    detector's property tests: silence must eventually raise it, a heal
    must eventually raise it again as suspicion clears. *)
