(** Certification for the database state machine technique.

    Every server runs the same deterministic test on every delivered
    writeset, in delivery order, so all servers reach the same
    commit/abort decision without voting (paper §2.1). The test is the
    standard backward validation: transaction [t], which read its items at
    logical version [start], commits iff no transaction that committed
    after [start] wrote an item [t] read.

    Items are non-negative ints; every function taking an item raises
    [Invalid_argument] on a negative one. The state is a dense window of
    versions over the items written so far, so each test or record costs
    one array access per item. *)

type t

val create : unit -> t

val current_version : t -> int
(** The logical commit counter; grows by one per committed writeset. *)

type decision = Commit | Abort

val decision_equal : decision -> decision -> bool

val certify : t -> start:int -> ws:Transaction.writeset -> decision
(** [certify c ~start ~ws] runs the test and, on commit, records the
    writeset's writes at a new version. Must be called in delivery order. *)

val check_only : t -> start:int -> read_items:int list -> decision
(** The test without recording — for lookahead and tests. *)

val last_writer : t -> int -> int option
(** [last_writer c item] is the version at which [item] was last written,
    if ever. *)

val commits : t -> int
val aborts : t -> int

val reset : t -> unit
(** Forgets everything (server crash: certification state is volatile and
    is rebuilt from the log / state transfer). *)

val export : t -> int * (int * int) list
(** [(version, bindings)] — the full certification state as a list.
    Bindings are (item, last-writing version) pairs, one per item ever
    written, in descending item order. *)

type frozen
(** An immutable copy of a certifier's state (state transfer). *)

val freeze : t -> frozen
(** [freeze c] copies [c]'s version and window; later changes to [c] do
    not reach the copy. *)

val thaw : t -> frozen -> unit
(** [thaw c f] replaces [c]'s state with a copy of [f]'s, so [f] can be
    thawed again with the same result. Resets statistics. *)

val note_commit : t -> write_items:int list -> unit
(** Advances the state by one committed writeset without running the test —
    used when rebuilding certification state from a write-ahead log whose
    records are already decided. *)
