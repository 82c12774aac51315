(** Structured execution traces.

    A trace records what happened during a run — one entry per interesting
    event, with the virtual timestamp, the subsystem/node that emitted it, a
    short kind tag and free-form attributes. Safety checkers and tests replay
    traces; debugging dumps them. Recording can be disabled wholesale to keep
    long performance runs cheap. *)

type entry = {
  time : Sim_time.t;
  source : string;  (** emitting node or component, e.g. ["S2"]. *)
  kind : string;  (** event tag, e.g. ["commit"] or ["crash"]. *)
  attrs : (string * string) list;  (** additional key/value details. *)
}

type t
(** A trace under construction. *)

val create : ?enabled:bool -> Engine.t -> t
(** [create e] is an empty trace stamped by [e]'s clock. [enabled] defaults
    to [true]; a disabled trace drops every entry. *)

val enabled : t -> bool

val record : t -> source:string -> kind:string -> (string * string) list -> unit
(** [record tr ~source ~kind attrs] appends an entry at the current virtual
    time (if recording is enabled). *)

val record_tx : t -> source:string -> kind:string -> int -> unit
(** [record_tx tr ~source ~kind tx] is
    [record tr ~source ~kind [ ("tx", string_of_int tx) ]], except that the
    attribute is built only when recording is enabled: on a disabled trace a
    per-transaction step allocates nothing. *)

val record_tx_outcome : t -> source:string -> kind:string -> int -> outcome:string -> unit
(** {!record_tx} with a second attribute, [("outcome", outcome)]. *)

val entries : t -> entry list
(** All recorded entries, oldest first. *)

val find_all : t -> kind:string -> entry list
(** Entries with the given kind, oldest first. *)

val attr : entry -> string -> string option
(** [attr e key] is the value of attribute [key], if present. *)

val length : t -> int

val pp_entry : Format.formatter -> entry -> unit

val dump : Format.formatter -> t -> unit
(** Prints every entry, one per line. *)

val render_entry : entry -> string
(** [pp_entry] as a string — the canonical one-line form. *)

val render : t -> string
(** The whole trace as one canonical string, one entry per line. Two runs
    with byte-identical renders executed the same events at the same
    virtual instants; determinism regressions compare these. *)

val equal : t -> t -> bool
(** Entry-wise equality of two traces (timestamps, sources, kinds and
    attributes all included). *)

val first_divergence : t -> t -> (int * entry option * entry option) option
(** [first_divergence a b] is the first position where the two traces
    disagree, with the offending entry of each side ([None] where a trace
    ended early), or [None] when the traces are identical. The diffing
    primitive behind schedule-replay debugging: shrunk counterexamples are
    explained by where their trace departs from a passing run's. *)
