(** Sets of broadcast uids, stored as per-origin runs.

    An origin numbers its broadcasts 0, 1, 2, … within each incarnation,
    and the ordering protocol decides them nearly in that order, so the
    delivered uids of one origin and incarnation are almost always a
    contiguous prefix. The set keeps, per [(origin, incarnation)], that
    prefix as one bound plus the few out-of-order seqs above it: an
    insertion walks a dozen runs and a list of a handful of seqs, and
    allocates only when it opens a run or lands out of order; the whole
    set exports as one short record per run. Seqs are non-negative. *)

type t

val create : unit -> t

val reset : t -> unit
(** Empties the set (a crash wipes the volatile delivered set). *)

val add : t -> Uid.t -> bool
(** [add s uid] inserts [uid]; [true] if it was not a member yet. *)

type run = {
  origin : int;
  incarnation : int;
  below : int;  (** every seq below [below] is a member. *)
  above : int list;  (** the members above [below], ascending. *)
}
(** One [(origin, incarnation)]'s members. [below] is the least seq that
    is not a member, so [above] never holds [below] itself. *)

val export : t -> run list
(** The members, one run per [(origin, incarnation)] holding any, in
    ascending [(origin, incarnation)] order — a function of the contents
    only, for state transfer. Immutable: later changes to the set do not
    reach it. *)

val import : t -> run list -> unit
(** [import s runs] adds every member of [runs] to [s] (a union: what [s]
    already holds stays). *)
