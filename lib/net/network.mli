(** The simulated local-area network.

    Point-to-point sends and broadcasts with a fixed transit latency and a
    per-operation CPU charge, matching the paper's Table 4 LAN model
    (0.07 ms per message or broadcast on the wire, 0.07 ms of CPU per
    network operation). Supports fault injection: per-message drop
    probability, network partitions, and implicit drops to nodes that are
    down at delivery time. *)

type config = {
  transit : Sim.Sim_time.span;  (** wire latency of a message or broadcast. *)
  cpu_per_op : Sim.Sim_time.span;  (** CPU charged per send and per receive. *)
  drop_probability : float;  (** independent loss probability per message. *)
}

val lan_config : config
(** The paper's 100 Mb/s LAN: 0.07 ms transit, 0.07 ms CPU, no loss. *)

type t
(** A network instance. *)

val create : Sim.Engine.t -> config -> t
(** [create e cfg] is an empty network on engine [e], drawing loss decisions
    from a stream split off [e]'s root generator. *)

val engine : t -> Sim.Engine.t

val register :
  t ->
  id:Node_id.t ->
  process:Sim.Process.t ->
  ?cpu:Sim.Resource.t ->
  (Message.t -> unit) ->
  unit
(** [register net ~id ~process ?cpu handler] attaches a node. Messages are
    handed to [handler] guarded by [process] (a crashed node receives
    nothing). When [cpu] is given, each send and each receive also occupies
    it for [cpu_per_op]; receive handlers then run after the CPU charge.
    @raise Invalid_argument if [id] is already registered. *)

val send : t -> src:Node_id.t -> dst:Node_id.t -> Message.payload -> unit
(** [send net ~src ~dst p] sends one message. Delivered after the transit
    delay unless dropped (loss, partition, or receiver down at delivery).
    Sending from a dead node is a silent no-op. *)

val broadcast : t -> src:Node_id.t -> to_:Node_id.t list -> Message.payload -> unit
(** [broadcast net ~src ~to_ p] delivers [p] to every node of [to_]
    (including [src] itself if listed, without wire delay suppression: the
    self-copy also takes one transit). One CPU charge at the sender covers
    the whole broadcast, modelling hardware multicast. Every copy counts
    as sent and draws its own loss, in [to_] order, exactly as that many
    {!send}s would; the surviving copies are then delivered in one event,
    in [to_] order, each checked and charged at its receiver as a send's
    copy is. A {!duplicate_next} mark adds one event per duplicated copy,
    one transit later. *)

val partition : t -> Node_id.t list list -> unit
(** [partition net groups] installs a partition: messages between nodes of
    different groups are dropped. Nodes absent from every group form an
    implicit final group. *)

val heal : t -> unit
(** Restores full connectivity: removes the partition {e and} clears every
    individually blocked link, so no residual unreachability survives a
    heal whichever primitive installed it. For link-granular repair use
    {!unblock_link} instead. *)

val block_link : t -> Node_id.t -> Node_id.t -> unit
(** [block_link net a b] drops messages between [a] and [b] (both
    directions) until {!unblock_link} — a single failed link, as opposed
    to a full partition. *)

val unblock_link : t -> Node_id.t -> Node_id.t -> unit

val reachable : t -> Node_id.t -> Node_id.t -> bool
(** Whether the current partition lets [src] reach [dst]. *)

val set_drop : t -> float option -> unit
(** [set_drop net (Some p)] overrides the configured per-message drop
    probability with [p] — the nemesis loss window. [set_drop net None]
    reverts to [config.drop_probability].
    @raise Invalid_argument if [p] is outside [\[0, 1\]]. *)

val drop_probability : t -> float
(** The drop probability currently in force (override or configured). *)

val duplicate_next : t -> Node_id.t -> unit
(** [duplicate_next net dst] marks [dst] so its next transmitted (i.e. not
    lost at send time) message is delivered twice, the duplicate one extra
    transit behind the original. The mark is consumed by that transmission
    even if delivery itself later fails. *)

val messages_sent : t -> int
val messages_delivered : t -> int
val messages_dropped : t -> int

val messages_duplicated : t -> int
(** Number of extra deliveries scheduled by {!duplicate_next}. *)
