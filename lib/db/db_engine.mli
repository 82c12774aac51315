(** The local database component (paper §2.2).

    One instance per server. Holds the full copy of the database in memory,
    charges simulated CPU and disk time for operations (Table 4: 4–12 ms
    per I/O, 0.4 ms of CPU per I/O, buffer pool with a hit ratio), logs
    commit decisions to a write-ahead log on stable storage, and recovers
    its state from that log after a crash. Serialisation of the in-memory
    state is the caller's concern: replication techniques install write
    values at their commit point (in delivery order), while the disk cost
    of those writes is charged separately, synchronously or in the
    background.

    The WAL is hardened against the storage-fault nemesis: records are
    framed, checksummed and sequence-numbered ({!Wal_codec}), and recovery
    is repair-aware — a torn tail is truncated, a bit-rotted record is
    detected and dropped, and the result is surfaced as a typed
    {!repair_report} instead of silently replaying garbage. See
    [docs/CHECKING.md]. *)

type config = {
  items : int;  (** database size. *)
  io_time_min : Sim.Sim_time.span;  (** fastest disk operation. *)
  io_time_max : Sim.Sim_time.span;  (** slowest disk operation. *)
  cpu_per_io : Sim.Sim_time.span;  (** CPU charged per physical I/O. *)
  buffer : Store.Buffer_pool.model;
  group_commit : bool;  (** batch log flushes. *)
  async_write_factor : float;
      (** service-time multiplier for background (write-back) disk writes;
          below 1 models coalescing and elevator scheduling of
          asynchronous writes (paper §5.1). *)
}

val table4_config : config
(** The paper's simulator parameters: 10 000 items, 4–12 ms I/O, 0.4 ms
    CPU per I/O, 20 % buffer hit ratio, group commit on, async factor
    0.5. *)

type wal_record = {
  w_tx : Transaction.id;
  w_decision : Certifier.decision;
  w_writes : (int * int) list;  (** empty for aborts. *)
}

(** The storage-fault vocabulary (one surface for every disk betrayal):
    {ul
    {- [Wipe_wal]: instantly discard every durable record (no real disk
       does this; kept as the legacy oracle-self-test hook).}
    {- [Wipe_wal_at_crash]: arm an amnesiac wipe performed by the next
       crash — {!Groupsafe.System.break_amnesiac} in fault-injection
       terms.}
    {- [Torn_write]: the next crash cuts the newest durable record
       mid-frame (half its bytes survive).}
    {- [Fsync_lie]: until the next crash, WAL flushes are acknowledged as
       durable but the records were never persisted; that crash silently
       drops them.}
    {- [Corrupt_record]: flip a byte of the newest durable record right
       now (bit-rot).}} *)
type fault = Wipe_wal | Wipe_wal_at_crash | Torn_write | Fsync_lie | Corrupt_record

type repair_report = {
  scanned : int;  (** durable frames examined. *)
  replayed : int;  (** records that decoded and were replayed. *)
  repairs : Wal_codec.repair list;  (** what was wrong, in log order. *)
}

(** Cumulative fault-injection and repair evidence, consumed by
    {!Check.Durability}. The [*_scanned] counters snapshot, at each
    recovery scan, how many injected faults that scan was responsible for
    finding; comparing them with [*_repaired]/[*_detected] proves the scan
    actually caught what was injected (an unhardened WAL comes up
    short). *)
type fault_stats = {
  wal_wipes : int;
  amnesia_armed : bool;
  torn_armed : int;
  torn_fired : int;  (** arms whose crash actually damaged a record. *)
  torn_scanned : int;
  torn_repaired : int;
  lies_armed : int;
  lies_acked : int;
  lies_dropped : int;
  corrupt_injected : int;
  corrupt_subsumed : int;
      (** injected corruptions whose evidence a later destructive fault
          physically destroyed before any scan (the record torn or wiped,
          or a second flip restoring it) — excluded from
          [corrupt_scanned]: no scan can detect what no longer exists. *)
  corrupt_scanned : int;
  corrupt_detected : int;
  sequence_gaps : int;
}

type t

val create :
  ?registry:Obs.Registry.t ->
  Sim.Engine.t ->
  process:Sim.Process.t ->
  cpus:Sim.Resource.t ->
  disks:Sim.Resource.t ->
  rng:Sim.Rng.t ->
  config ->
  t
(** [create e ~process ~cpus ~disks ~rng config] builds the component.
    Crash behaviour (losing buffered state, pending log writes, lock table
    and in-memory values) is wired to [process]; a restart hook scans and
    self-heals the WAL before any replication-layer recovery runs. The
    resources are shared with the rest of the server and are not reset
    here. [registry] receives the [wal.torn_repaired],
    [wal.corrupt_detected] and [disk.degraded] counters (a private
    registry is used when omitted). *)

val config : t -> config
val engine : t -> Sim.Engine.t

val value : t -> int -> int
(** Current in-memory value of an item. *)

val values : t -> int array
(** A copy of every item's current value, indexed by item. *)

type snapshot
(** A copy of the whole in-memory state, as state transfer ships it: a
    flat block of 8 bytes per item, so taking and installing one is a
    memory copy. *)

val values_snapshot : t -> snapshot

val install_snapshot : t -> snapshot -> unit
(** Overwrite every value with the snapshot's, which must come from an
    engine with the same number of items.
    @raise Invalid_argument otherwise. *)

val read : t -> item:int -> k:(int -> unit) -> unit
(** [read t ~item ~k] performs a timed read: free on a buffer hit,
    otherwise CPU + disk. [k] receives the value. *)

val read_seq : t -> items:int list -> k:(unit -> unit) -> unit
(** Reads the items one after another (program order), then [k]. *)

val install_writes : t -> (int * int) list -> unit
(** Instantly installs values in memory and the buffer. The disk cost is
    charged separately via {!write_io} or {!log_commit}. *)

val write_io : t -> count:int -> factor:float -> k:(unit -> unit) -> unit
(** [write_io t ~count ~factor ~k] charges CPU + disk for [count] page
    writes, issued concurrently (they queue on the server's disks). The
    disk service time of each write is scaled by [factor]: use [1.0] for
    synchronous in-path writes and a value below one for background
    write-back that can be coalesced and elevator-scheduled (the config's
    [async_write_factor] is the conventional choice). [k] runs when all
    complete. *)

val async_factor : t -> float
(** The configured background-write factor. *)

val log_commit :
  t -> tx:Transaction.id -> decision:Certifier.decision -> writes:(int * int) list ->
  k:(unit -> unit) -> unit
(** Appends a framed decision record to the WAL; [k] runs once it is
    durable (group commit may batch it with neighbours). *)

val log_commit_quiet :
  t -> tx:Transaction.id -> decision:Certifier.decision -> writes:(int * int) list -> unit
(** Fire-and-forget WAL append (asynchronous durability — the group-safe
    mode). *)

val locks : t -> Lock_table.t
(** The server-local lock table (fresh after every crash). *)

val testable : t -> Testable_tx.t
(** The testable-transaction table; {!recover} rebuilds it from the WAL. *)

val wal_records : t -> wal_record list
(** Durable WAL contents that decode cleanly, oldest first (inspection /
    checkers). Damaged frames are skipped, not repaired — that is the
    recovery scan's job (see {!recover}). *)

val inject : t -> fault -> unit
(** Arm (or, for [Wipe_wal] and [Corrupt_record], immediately perform) a
    storage fault. See {!fault}. *)

val break_skip_checksum : t -> unit
(** Oracle mutation: disable checksum verification on recovery, modelling
    an unhardened WAL that replays rotted bytes. The durability oracle
    must flag the resulting undetected corruption. *)

val set_disk_slow : t -> float -> unit
(** Gray failure: scale WAL flush durations by the factor (clamped to at
    least 1.0; pass 1.0 to heal). *)

val set_disk_full : t -> bool -> unit
(** While full, WAL appends park (volatile) instead of flushing; clearing
    the condition releases them in order. Replication layers consult
    {!disk_full} to degrade gracefully — abort new update transactions
    with a distinct reason while continuing to serve reads and group
    traffic. *)

val disk_full : t -> bool

val note_degraded : t -> unit
(** Count one refused-while-full commit on the [disk.degraded] counter
    (called by the replica layer that performs the refusal). *)

val fault_stats : t -> fault_stats

val last_repair : t -> repair_report option
(** The report of the most recent recovery scan, if any. *)

val durable_commits : t -> int
(** Number of committed transactions currently recorded on this server's
    disk. *)

val recover : t -> k:(unit -> unit) -> unit
(** After one timed disk read, scan the durable WAL, repair it (truncate a
    torn tail, drop records that fail their checksum), rebuild the
    in-memory values and the testable-transaction table by replaying what
    remains, record the {!repair_report} as {!last_repair}, then call [k].
    The restart hook runs the same scan without the disk read. A second
    scan of a repaired log reports no repairs, so recovery layers read
    {!last_repair} and {!testable} instead of scanning again. *)

val buffer_hit_ratio : t -> float
