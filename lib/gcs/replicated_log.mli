(** Totally ordered replicated log (multi-Paxos).

    The ordering engine beneath both atomic-broadcast primitives. A static
    group of members agrees on a growing sequence of entries; each member
    learns decided entries and hands them, in slot order, to the layer
    above. Leadership follows the failure detector (lowest trusted index);
    a new leader runs a Paxos prepare phase over the undecided suffix and
    then serves proposals with accept rounds only. An entry is decided when
    a majority of the static group accepted it, which is what makes
    delivery {e uniform}: a decided entry survives any minority of
    crashes.

    Two persistence modes mirror the paper's two system models:
    - {b Volatile} (dynamic crash no-recovery): protocol state lives in
      memory. A member that crashes loses it; on restart it stays out of
      the protocol ({!status} = [Recovering]) until the layer above
      completes a state transfer and calls {!resume}. If every member
      crashes, the log is gone — the group has failed.
    - {b Durable} (static crash recovery): acceptor state is written to
      stable storage before it is acknowledged, so a member recovers its
      protocol role by itself, rejoins immediately, and decided entries can
      be re-learned even after all members crash simultaneously. *)

module type VALUE = sig
  type t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Make (V : VALUE) : sig
  type entry = Noop | App of V.t | Batch of V.t list
      (** [Batch] packs several values into one consensus instance
          ({!Bcast_tuning.batch} > 1); delivery unbatches them in
          submission order, so the layer above always sees a per-value
          stream. *)

  type mode =
    | Volatile
    | Durable of {
        disk : Sim.Resource.t;
        write_time : unit -> Sim.Sim_time.span;
            (** service time of one protocol-log flush. *)
      }

  type t
  (** One member's log endpoint. *)

  type status =
    | Active  (** participating. *)
    | Recovering  (** crashed and restarted in volatile mode; awaiting {!resume}. *)

  val create :
    Net.Endpoint.t ->
    group:Net.Node_id.t list ->
    mode:mode ->
    ?fd_config:Failure_detector.config ->
    ?uniform:bool ->
    ?tuning:Bcast_tuning.t ->
    ?metrics:Obs.Registry.t ->
    unit ->
    t
  (** [create ep ~group ~mode ()] attaches a member to endpoint [ep].
      [group] is the full static membership (must include the endpoint's
      own id). Crash and restart behaviour is wired to the endpoint's
      process automatically.

      [uniform] (default [true]) selects uniform agreement: entries are
      delivered only once a majority accepted them. Setting it to [false]
      is the paper-motivated ablation — deliver optimistically as soon as
      accepted locally, saving a round trip but allowing a delivery at a
      process that fails before anyone else learns the entry.

      [tuning] (default {!Bcast_tuning.default}, which reproduces the seed
      engine event for event) sets batching, pipelining-window and
      dissemination knobs; raises [Invalid_argument] if batch or window is
      below 1. All members of a group must share the same tuning.

      [metrics] receives the protocol counters [log.prepares],
      [log.accepts_sent], [log.accept_resends] and [log.chosen], plus the
      engine histograms [abcast.batch_size] and [abcast.window_occupancy];
      omitted, they accumulate in a private registry so the hot path is
      identical either way. *)

  val id : t -> Net.Node_id.t
  val status : t -> status

  val on_decide : t -> (slot:int -> V.t list -> unit) -> unit
  (** [on_decide m f] registers the delivery upcall: [f ~slot vs] fires for
      every decided slot in increasing order, with [vs] the slot's values
      in submission order ([[]] for protocol no-ops, more than one element
      when the leader batched). In durable mode, after a restart the upcall
      {e re-fires from slot 0} as entries are re-learned — replay is the
      layer above's concern. In volatile mode it fires from the {!resume}
      slot onwards. *)

  val propose : t -> V.t -> unit
  (** [propose m v] submits [v] for ordering. The log may order a value
      twice if retries race; callers needing exactly-once must deduplicate
      at delivery (the broadcast layers do). Proposals made while the
      member is [Recovering] are dropped. *)

  val resume : t -> slot:int -> unit
  (** [resume m ~slot] (volatile mode) re-activates a recovering member
      whose application state was transferred up to [slot]: it resumes
      deciding from that slot. [resume m ~slot:0] on a fresh group is the
      cold start. *)

  val decided_prefix : t -> int
  (** Number of contiguously decided slots this member has delivered. *)

  val detector : t -> Failure_detector.t
  (** The endpoint's failure detector, built from [fd_config]: leadership
      follows it, and the layers above subscribe to it. *)

  val leader_hint : t -> Net.Node_id.t option
  (** Whom this member currently believes to be leader. *)

  val is_leading : t -> bool
  (** Whether this member currently holds an established leadership. *)

  val break_no_accept_retransmit : t -> unit
  (** Oracle-mutation hook: disable the leader's periodic retransmission of
      in-flight Accepts, reintroducing the wedged-forever bug the liveness
      storms must rediscover (a dropped Accept then stalls its slot until
      a leader change). Test-only; never call in production paths. *)
end
