(** The safety-criteria lattice (paper §2.1 and §5, Tables 1–3).

    A safety level states what is guaranteed at the instant the client is
    told its transaction committed:

    - {b 0-safe}: the transaction reached one server; nothing is logged.
    - {b 1-safe}: it is logged on the delegate only (classic lazy).
    - {b group-safe}: the message carrying it is guaranteed to be delivered
      on all available servers; possibly logged nowhere. Durability is the
      group's responsibility.
    - {b group-1-safe}: group-safe and logged on the delegate.
    - {b 2-safe}: logged on all available servers.
    - {b very safe}: logged on all servers — a single crash blocks commits,
      so the level is impractical (§2.1) and included for completeness. *)

type level = Zero_safe | One_safe | Group_safe | Group_one_safe | Two_safe | Very_safe

val all : level list
(** Every level, weakest first. *)

val to_string : level -> string
val of_string : string -> level option
val pp : Format.formatter -> level -> unit
val equal : level -> level -> bool

type delivered_guarantee = Delivered_one | Delivered_all
type logged_guarantee = Logged_none | Logged_one | Logged_all

val classify : delivered:delivered_guarantee -> logged:logged_guarantee -> level option
(** Table 1 as a lookup: the safety level of a technique with the given
    guarantees. [None] for the impossible cell ([Delivered_one],
    [Logged_all]): a transaction cannot be logged where it was not
    delivered. Very-safe shares the ([Delivered_all], [Logged_all]) cell
    with 2-safe and is not returned. *)

type crash_tolerance = Tolerates_none | Tolerates_minority | Tolerates_all

val crash_tolerance : level -> crash_tolerance
(** Table 2: how many server crashes the level survives without the
    possibility of losing an acknowledged transaction. [Tolerates_minority]
    means fewer than [n] crashes — the group must not fail. *)

val lost_if : level -> group_failed:bool -> delegate_crashed:bool -> bool
(** Table 3 (generalised to every level): can an acknowledged transaction
    be lost under the given failure condition? [group_failed] means too
    many servers crashed for the group to survive (here: all of them, per
    the paper's Fig. 5 scenario where stable storage is what remains);
    [delegate_crashed] whether the transaction's delegate was among the
    crashed. *)

val description : level -> string
(** One sentence on what the client acknowledgement means. *)
