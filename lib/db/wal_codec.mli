(** Framed, checksummed WAL record encoding.

    Every record is one self-describing byte string:
    [[seq:8 LE][len:4 LE][crc:4 LE][payload]] where [len] is the payload
    length and [crc] is CRC-32 (IEEE, table-driven) over the whole
    frame with the crc field zeroed — so a flip anywhere, header included,
    is detected. The payload carries the transaction id, decision and
    write set. Sequence numbers are monotonic and never reused, letting
    {!scan} distinguish a record missing mid-log from a log that
    legitimately starts later. See the "Storage faults" section of
    [docs/CHECKING.md]. *)

type record = {
  seq : int;
  tx : Transaction.id;
  decision : Certifier.decision;
  writes : (int * int) list;
}

type error =
  | Torn  (** frame shorter than its header claims (cut mid-record). *)
  | Bad_checksum  (** stored CRC does not match the frame contents. *)
  | Bad_length  (** internally inconsistent lengths (not a crash artefact). *)

type repair =
  | Torn_tail_truncated  (** short final frame dropped: a torn write. *)
  | Corrupt_record_dropped of int
      (** undecodable frame dropped mid-log; the [int] is the sequence
          number it presumably held, [-1] if unknown (corrupt log head). *)
  | Sequence_gap of { expected : int; found : int }
      (** decodable records jump sequence numbers: records were lost whole
          (e.g. a lying fsync) rather than damaged. Informational — there
          is nothing left to repair. *)

val encode :
  seq:int -> tx:Transaction.id -> decision:Certifier.decision -> writes:(int * int) list -> string

val decode : ?verify:bool -> string -> (record, error) result
(** Total: never raises, any byte string yields [Ok] or a typed error.
    [~verify:false] skips the checksum comparison (the [break_skip_checksum]
    oracle mutation) — structural checks still apply. *)

val scan : ?verify:bool -> string list -> record list * repair list
(** [scan frames] decodes a durable log oldest-first, returning the
    replayable records and the repairs performed: a short final frame
    becomes {!Torn_tail_truncated}, any other undecodable frame
    {!Corrupt_record_dropped}, and sequence discontinuities between good
    records {!Sequence_gap}. Dropped frames are assumed to have consumed
    one sequence number, so an explained gap is not double-reported. *)

val crc32 : bytes -> pos:int -> len:int -> int
(** The checksum itself (exposed for tests and benchmarks). *)
