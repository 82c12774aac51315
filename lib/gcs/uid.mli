(** Unique broadcast message ids, shared by both broadcasts.

    A message is named by its origin's node index, the origin's process
    incarnation and an origin-local sequence number. The sequence restarts
    at 0 in each incarnation; the incarnation keeps retransmissions from a
    reborn node from colliding with its earlier life. *)

type t = { origin : int; incarnation : int; seq : int }

val equal : t -> t -> bool
val hash : t -> int

val compare : t -> t -> int
(** Lexicographic on [(origin, incarnation, seq)] — the order of every
    deterministic enumeration of uids. *)

val pp : Format.formatter -> t -> unit
(** [origin.incarnation.seq]. *)
