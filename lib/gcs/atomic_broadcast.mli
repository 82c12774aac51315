(** Classical atomic broadcast (dynamic crash no-recovery model).

    The primitive most group-communication toolkits offer, satisfying
    validity, uniform agreement, uniform integrity and uniform total order
    (paper §2.3). Delivery is an upcall; nothing records whether the
    application {e processed} a delivered message. Recovery follows the
    view-based model: a crashed member rejoins by {b state transfer} — it
    asks a live member for an application snapshot and resumes delivery
    after the snapshot point. Messages delivered before the crash but not
    processed are {e not} redelivered: this is precisely the gap the paper's
    Fig. 5 exploits to show the resulting replication is not 2-safe.

    If every member crashes, the group state is lost: recovering members
    that find no live peer perform a {b cold start} from their own durable
    application state. *)

module Make
    (V : Replicated_log.VALUE)
    (S : sig
       type t
       (** application snapshot carried by state transfer. *)
     end) : sig
  type t
  (** One member's broadcast endpoint. *)

  val create :
    Net.Endpoint.t ->
    group:Net.Node_id.t list ->
    ?fd_config:Failure_detector.config ->
    ?uniform:bool ->
    ?tuning:Bcast_tuning.t ->
    ?delivery_delay:Delivery_delay.t ->
    ?metrics:Obs.Registry.t ->
    deliver:(V.t -> unit) ->
    get_snapshot:(unit -> S.t) ->
    install_snapshot:(S.t -> unit) ->
    cold_start:(unit -> unit) ->
    unit ->
    t
  (** [create ep ~group ~deliver ~get_snapshot ~install_snapshot ~cold_start ()]
      attaches a member. [deliver] is the A-deliver upcall (same total order
      at every member, each message at most once per incarnation).
      [get_snapshot] must capture the application state reflecting exactly
      the deliveries made so far; [install_snapshot] replaces the joiner's
      application state during state transfer; [cold_start] tells the
      application to restart from its own durable state because the whole
      group was lost.

      [uniform] (default [true]) is forwarded to the ordering protocol;
      [false] delivers optimistically before the entry is stable at a
      majority — the ablation that breaks uniform agreement (and with it
      group-safety).

      [tuning] (default {!Bcast_tuning.default}) selects the ordering
      engine's batching/pipelining/dissemination knobs. Batched instances
      are unbatched at decide time, so [deliver] always sees the same
      per-message stream in the same order.

      [delivery_delay] (default {!Delivery_delay.pass}) holds each ordered
      entry — application messages and view events alike, order preserved —
      for a deterministic extra span between decide and deliver; schedule
      explorers use it to widen the decided-but-unprocessed window. Snapshot
      donors flush the gate first, so state transfer is unaffected.

      [metrics] receives the broadcast's counters ([abcast.broadcasts],
      [abcast.delivered], [abcast.retransmit_ticks]) plus the ordering
      log's ([log.*]); omitted, they accumulate in a private registry so
      the hot path is identical either way. *)

  val broadcast : t -> V.t -> unit
  (** A-broadcast. Retransmits internally until ordered, so a message
      survives leader changes (but not the crash of its own sender before
      ordering completes). *)

  val delivered_count : t -> int
  (** Messages A-delivered by this member in its current incarnation
      (post-snapshot for a member that joined by state transfer). *)

  val recovering : t -> bool
  (** [true] between a restart and the completion of state transfer or cold
      start. *)

  val cold_started : t -> bool
  (** Whether this member's last recovery was a cold start. *)

  val current_view : t -> View.t
  (** The member's current view (paper §2.3): who the group currently
      considers present. View changes are ordered {e through the broadcast
      itself}, so every member installs the same view sequence at the same
      position relative to application messages (virtual synchrony). The
      lowest-indexed live member proposes exclusions when the ordering
      log's failure detector convicts a view member; a member that
      finishes rejoining proposes its own inclusion. *)

  val on_view_change : t -> (View.t -> unit) -> unit
  (** [on_view_change t f] calls [f] at every view installation, in
      delivery order. *)

  val is_leading : t -> bool
  (** Whether this member's ordering log currently holds leadership —
      progress evidence for the liveness oracle. *)

  val break_no_accept_retransmit : t -> unit
  (** Oracle-mutation hook: forwarded to the ordering log (see
      {!Replicated_log.Make.break_no_accept_retransmit}). Test-only. *)
end
