(** The durability oracle: certify the paper's safety lattice on the disk
    axis.

    Stacked after the safety / convergence / liveness oracles, it consumes
    the safety checker's loss report plus each server's storage-fault
    evidence ({!Groupsafe.System.storage_faults}) and answers two
    questions:

    {ul
    {- {b Was every loss permitted?} Each lost transaction is classified:
       allowed by the level's loss condition (Table 3) given a group
       failure or delegate crash; otherwise attributable to storage
       betrayal — but only when {e every} replica's WAL was hit by a
       destructive fault (a lying fsync, torn write, wipe or bit-rot), the
       situation no replication protocol at any level can survive; else
       {b forbidden}. So the group-safe configuration loses only when all
       replicas lost it, 2-safe loses nothing short of total betrayal, and
       1-safe's permitted loss is flagged-but-allowed.}
    {- {b Did recovery repair what was injected?} The [*_scanned] counters
       snapshot, at each recovery scan, how many injected torn writes /
       corruptions that scan was responsible for finding; the verdict
       demands [torn_repaired = torn_scanned] and
       [corrupt_detected = corrupt_scanned]. An unhardened WAL (the
       [break_skip_checksum] mutation) replays rotted bytes undetected and
       fails exactly this check.}}

    See the "Storage faults & the durability oracle" section of
    [docs/CHECKING.md]. *)

type classification =
  | Permitted_group_failure  (** allowed: a majority was simultaneously down. *)
  | Permitted_delegate_crash  (** allowed at 0/1-safe: the delegate crashed. *)
  | Permitted_storage_betrayal
      (** every replica's WAL suffered a destructive fault; no level
          survives that. *)
  | Forbidden  (** the advertised level does not excuse this loss. *)

type lost = {
  l_tx : Db.Transaction.id;
  l_acked_at : Sim.Sim_time.t;
  l_class : classification;
}

type verdict = {
  level : Groupsafe.Safety.level;
  acked_commits : int;
  lost : lost list;
  flagged : int;  (** permitted losses (reported, not fatal). *)
  forbidden : int;
  torn_fired : int;
  torn_scanned : int;
  torn_repaired : int;
  corrupt_injected : int;
  corrupt_scanned : int;
  corrupt_detected : int;
  lies_acked : int;
  lies_dropped : int;
  wal_wipes : int;
  sequence_gaps : int;
  repair_ok : bool;
  clean : bool;  (** no forbidden loss and every repair accounted for. *)
}

val certify :
  ?delegate_crashed:(Db.Transaction.id -> bool) ->
  Groupsafe.System.t ->
  Groupsafe.Safety_checker.report ->
  verdict
(** [certify sys report] confronts the safety report with the system's
    storage-fault evidence. [delegate_crashed tx] tells whether the
    transaction's delegate crashed during the run (defaults to never, the
    conservative direction for 0/1-safe permissions). *)

val pp : Format.formatter -> verdict -> unit
