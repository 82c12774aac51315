(** The healing-convergence oracle.

    {!Safety_checker} asks the weakest useful question after a faulty run:
    is every acknowledged update still held {e somewhere}? This oracle asks
    the stronger question that matters after the network heals: has the
    group actually {b converged} — every acknowledged update present on
    {e every} serving server, zero divergent items, and the system live
    again (a fresh probe transaction commits within a bound)?

    The intended protocol (the explorer's nemesis mode follows it):
    + run the schedule, nemesis faults included;
    + heal the network, clear any loss window, recover every server;
    + run to quiescence;
    + call {!certify}.

    A minority partition must {e stall} rather than diverge: while cut off
    it acknowledges nothing new (uniform delivery needs a quorum), and
    after the heal it catches up. A technique that instead serves divergent
    state from the minority side, or that cannot commit the probe after the
    heal, fails certification even if no acknowledged update was lost. *)

type missing = {
  server : int;  (** a serving server... *)
  tx : Db.Transaction.id;  (** ...that does not hold this acked update. *)
}

type verdict = {
  checked_at : Sim.Sim_time.t;
  acked_updates : int;  (** updates acknowledged as committed. *)
  serving_servers : int list;  (** servers serving when certification ran. *)
  missing : missing list;  (** (server, update) replication holes. *)
  divergent_items : int;  (** conflicting items across serving servers. *)
  probe_committed : bool;  (** the fresh probe committed within the bound. *)
  probe_ms : float option;  (** probe response time, when a response came. *)
  converged : bool;  (** no holes, no divergence, probe committed. *)
}

val certify : ?probe_tx_id:int -> System.t -> verdict
(** [certify sys] submits the probe, {b runs the simulation} for 2 s (the
    probe's bound), and only then measures holes and divergence —
    deliberately in that order, because a server that sat out a partition
    catches up when the probe's fresh decision exposes its chosen-slot
    gap. Call it only after the analysis you want is done, or
    analyse first. [probe_tx_id] (default 1_000_000) must not collide with
    any workload transaction id. With no serving server the verdict is
    trivially not converged. *)

val pp : Format.formatter -> verdict -> unit
