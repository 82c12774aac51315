(** Testable transactions (paper §2.2, after Frølund & Guerraoui).

    The local database can be asked whether a given transaction was already
    processed and with which outcome, so a replayed message never commits a
    transaction twice. The table is rebuilt from the write-ahead log during
    recovery, which is what makes the answer trustworthy after a crash.

    Outcomes are stored one byte per id in fixed pages of consecutive ids,
    so a state-transfer snapshot ({!freeze}) is a copy of a few pages. *)

type outcome = Committed | Aborted

val outcome_equal : outcome -> outcome -> bool
val outcome_to_string : outcome -> string
(** ["committed"] or ["aborted"], the form traces and spans carry. *)

val pp_outcome : Format.formatter -> outcome -> unit

type t

val create : unit -> t

val record : t -> Transaction.id -> outcome -> unit
(** Records the outcome; recording the same outcome again is a no-op.
    @raise Invalid_argument on a conflicting outcome for the same id. *)

val find : t -> Transaction.id -> outcome option
val already_processed : t -> Transaction.id -> bool
val count : t -> int

val reset : t -> unit
(** Forgets everything (crash); the owner re-populates it from the log. *)

val committed_count : t -> int

type frozen
(** An immutable copy of a table's contents (state transfer). *)

val freeze : t -> frozen
(** [freeze t] copies [t]'s contents; later changes to [t] do not reach
    the copy. *)

val thaw : t -> frozen -> unit
(** [thaw t f] replaces [t]'s contents with a copy of [f]'s, so [f] can be
    thawed again, into [t] or elsewhere, with the same result. *)
