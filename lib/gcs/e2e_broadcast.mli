(** End-to-end atomic broadcast (the paper's new primitive, §4).

    Extends atomic broadcast with an application acknowledgement: a
    delivery is {e successful} only once the application has processed the
    message and called {!ack}. The group-communication layer logs protocol
    state and its acknowledgement cursor on stable storage; after a crash it
    {b replays} every decided message that was not yet successfully
    delivered. Properties (paper §4.2):

    - {e End-to-end}: a non-red process that A-delivers [m] eventually
      successfully A-delivers [m];
    - {e Refined uniform integrity}: [m] may be {e delivered} several times
      (replays), but is {e successfully delivered} at most once — up to the
      durability lag of the acknowledgement cursor, which is why the paper
      requires testable (exactly-once) transactions at the application
      (§2.2, §4.3).

    Built on the replicated log in durable mode, so it tolerates the
    simultaneous crash of every member. *)

module Make (V : Replicated_log.VALUE) : sig
  type t

  type token
  (** Identifies one delivery for acknowledgement. *)

  val create :
    Net.Endpoint.t ->
    group:Net.Node_id.t list ->
    disk:Sim.Resource.t ->
    write_time:(unit -> Sim.Sim_time.span) ->
    ?fd_config:Failure_detector.config ->
    ?tuning:Bcast_tuning.t ->
    ?delivery_delay:Delivery_delay.t ->
    ?metrics:Obs.Registry.t ->
    deliver:(token -> V.t -> unit) ->
    unit ->
    t
  (** [create ep ~group ~disk ~write_time ~deliver ()] attaches a member
      whose protocol log and acknowledgement cursor live on [disk].
      [deliver] is the A-deliver upcall; the application must call
      [ack t token] once it has durably processed the message.

      [delivery_delay] (default {!Delivery_delay.pass}) holds each decided
      entry for a deterministic extra span before the deliver upcall, order
      preserved — the schedule explorer's knob. An entry still held at a
      crash is simply replayed later: end-to-end delivery makes the gate
      harmless here.

      [metrics] receives [e2e.broadcasts], [e2e.delivered],
      [e2e.retransmit_ticks] and [e2e.acks] plus the ordering log's
      [log.*] counters; omitted, they accumulate in a private registry so
      the hot path is identical either way. *)

  val broadcast : t -> V.t -> unit
  (** A-broadcast with internal retransmission until ordered. *)

  val ack : t -> token -> unit
  (** [ack t token] marks the delivery successful. Several deliveries can
      share a token when the ordering engine batched them into one slot;
      the cursor only advances past a slot once every delivery it carried
      was acked. The cursor write is asynchronous: a crash immediately
      after [ack] may still replay the message once more. *)

  val delivered_count : t -> int
  (** Deliveries (including replays) made by this member so far. *)

  val acked_slot : t -> int
  (** Durable cursor: every slot below it was successfully delivered. *)

  val detector : t -> Failure_detector.t
  (** The ordering log's failure detector ({!Replicated_log.Make.detector}). *)

  val is_leading : t -> bool
  (** Whether this member's ordering log currently holds leadership —
      progress evidence for the liveness oracle. *)

  val break_no_accept_retransmit : t -> unit
  (** Oracle-mutation hook: forwarded to the ordering log (see
      {!Replicated_log.Make.break_no_accept_retransmit}). Test-only. *)
end
