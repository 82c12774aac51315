(** Database buffer pool model.

    Decides whether a page read needs a disk read: every read hits the
    buffer with a fixed probability (the paper's Table 4 uses a 20 % hit
    ratio). Writes always succeed in the buffer (the write-ahead log
    provides durability), so only reads consult the pool. *)

type t

val create : Sim.Rng.t -> float -> t
(** [create rng ratio] is a fresh pool whose reads hit with probability
    [ratio], drawn from [rng].
    @raise Invalid_argument unless [0 <= ratio <= 1]. *)

val read : t -> bool
(** [true] on a buffer hit, [false] when the page must be fetched from
    disk. *)
