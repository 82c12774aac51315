(** The per-server half every replication technique holds.

    In the paper's safety lattice (Tables 1–3, Figs. 2 and 8) every
    technique runs the same machinery on each server and differs only in
    when the delegate answers, relative to delivery and logging. This
    module is that machinery, once: the server, its committed view, the
    [ready] flag, the protocol trace, the obs tracer and the span category,
    plus the step recorders, admission, the local strict-2PL executor and
    local WAL recovery. {!Dsm_replica}, {!Lazy_replica} and
    {!Twopc_replica} each hold one and keep only their protocol.

    The core resolves no registry metric: each technique resolves its own
    counters and histograms and hands the histogram to {!observe_phase}. *)

type t = {
  server : Server.t;
  view : Db.Testable_tx.t;
      (** the outcomes this replica knows, by transaction: the committed
          view {!System.committed_on} reads. Reset by a crash. *)
  mutable ready : bool;
      (** false from a crash until the technique's recovery finishes;
          submissions are dropped meanwhile. *)
  trace : Sim.Trace.t;
  tracer : Obs.Tracer.t;
  source : string;  (** the server's label, the trace's source column. *)
  mutable cat : string;
      (** span category: the name of the advertised safety level, which a
          technique that switches its response rule at runtime updates. *)
}

val create : Server.t -> level:Safety.level -> tracer:Obs.Tracer.t -> trace:Sim.Trace.t -> t
(** [create server ~level ~tracer ~trace] is a ready replica core whose
    spans carry [level]'s name. It hooks the server's crash: [ready] is
    cleared and the view reset (this may run before the technique's own
    kill hook). Restart hooks belong to the technique. *)

val serving : t -> bool
(** Up and not recovering. *)

val now : t -> Sim.Sim_time.t

val guard : t -> (unit -> unit) -> unit -> unit
(** {!Sim.Process.guard} on the server's process: the continuation runs
    only in the incarnation that created it. *)

(** {1 Step recorders} *)

val tr : t -> string -> (string * string) list -> unit
(** One protocol-trace entry from this server. *)

val tr_tx : t -> string -> Db.Transaction.id -> unit
(** A per-transaction trace entry; its attribute string is built only when
    the trace records. *)

val tr_outcome : t -> string -> Db.Transaction.id -> Db.Testable_tx.outcome -> unit
(** {!tr_tx} with the outcome as a second attribute. *)

val respond :
  t -> Db.Transaction.id -> Db.Testable_tx.outcome -> (Db.Testable_tx.outcome -> unit) -> unit
(** [respond t tx outcome k] traces the answer as ["respond"] and gives
    [outcome] to the client continuation [k]. *)

val observe_phase :
  t ->
  Obs.Histogram.t ->
  name:string ->
  tx:Db.Transaction.id ->
  from_:Sim.Sim_time.t ->
  until:Sim.Sim_time.t ->
  unit
(** Record one lifecycle phase [\[from_, until)] into the histogram and,
    when the tracer is enabled, as a complete span on this server's track
    under the current category. *)

(** {1 Delegate side} *)

val admit : t -> Db.Transaction.t -> on_response:(Db.Testable_tx.outcome -> unit) -> bool
(** The submission entry every technique shares. A server that is not
    {!serving} drops the submission ([false], no answer). While the disk is
    full an update is refused with a distinct abort instead of wedging the
    commit path: traced ["disk_full_abort"], counted on [disk.degraded],
    answered [Aborted] at once ([false]); reads and group traffic go on.
    Otherwise the submission is traced and admitted ([true]). *)

val execute_locked : t -> Db.Transaction.t -> k:([ `Done | `Deadlock ] -> unit) -> unit
(** Execute the operations in program order under strict two-phase
    locking on the server's local lock table: reads take shared locks and
    charge a timed read, writes take exclusive locks. [k] receives
    [`Done] with every lock held, or [`Deadlock] when the lock table
    refuses a request; releasing the locks is the caller's. *)

(** {1 Recovery and inspection} *)

val recover_local : t -> unit
(** The outcomes of the repaired WAL become the view. The database
    engine's restart hook has already scanned, repaired and replayed the
    WAL; what that scan repaired is traced as ["wal_repair"]. *)

val committed : t -> Db.Transaction.id -> bool
(** Whether this replica's current view includes the transaction as
    committed. *)
