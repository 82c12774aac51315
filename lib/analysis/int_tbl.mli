(** Hash tables keyed by [int], with deterministic enumeration.

    Transaction ids, log slots, item numbers, node indexes and pages are all
    ints, and the simulator looks them up several times per simulated event.
    The polymorphic [Hashtbl] pays a C call to the generic hash and a
    structural comparison per probe; this table is [Hashtbl.Make] over
    [int] with [Int.equal] and a shift-xor fold of the key,
    [(x lxor (x lsr 3)) land max_int], as the hash, so a probe is a few
    integer operations, an array read and an integer compare. The fold
    keeps dense keys in neighbouring buckets and spreads strided ones (a
    shard's transaction ids step by the shard count) over every bucket.

    The table type is abstract and the only enumerations are in ascending
    key order ({!iter_sorted}, {!fold_sorted}), so bucket order can never
    reach a report, a trace or the simulated network (see
    {!Det_tbl} and docs/LINTING.md, rule [T-hashtbl-iter]). Sorting costs
    [O(n log n)] per enumeration. *)

type 'a t

val create : int -> 'a t
(** [create n] is an empty table sized for about [n] bindings. *)

val reset : 'a t -> unit
(** Remove every binding and shrink back to the initial size. *)

val length : 'a t -> int
val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val stats : 'a t -> Hashtbl.statistics
(** Bucket statistics, as [Hashtbl.stats]: how evenly the hash spreads the
    keys. A bucket of [n] bindings costs [(n + 1) / 2] probes per hit on
    average. *)

val iter_sorted : (int -> 'a -> unit) -> 'a t -> unit
(** [iter_sorted f t] applies [f] to every binding in ascending key order.
    The keys are read before the first call: a binding [f] removes before
    it is reached is skipped, and one [f] adds is not visited. *)

val fold_sorted : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** [fold_sorted f t init] folds [f] over the bindings in ascending key
    order. *)
