(** Deterministic iteration over [Hashtbl.t].

    [Hashtbl]'s own [iter]/[fold] visit bindings in bucket order, which
    depends on the table's insertion and resize history: two tables holding
    the {e same} bindings can enumerate them differently. Any such
    enumeration that reaches a report, a trace, a CSV file or the simulated
    network breaks the repo's byte-identical-determinism contract (see
    docs/LINTING.md, rule [D-hashtbl-iter]).

    This module enumerates the {e distinct keys in ascending [cmp] order}
    instead, so the result depends only on the table's contents. Every
    function takes a required [~cmp] ([Int.compare], [String.compare], the
    key module's own [compare]): there is no polymorphic-[compare] default.
    For keys bound multiple times with [Hashtbl.add], only the most recent
    binding (the one [Hashtbl.find] returns) is visited. The sort costs
    [O(n log n)] per call — fine everywhere except tight per-event paths,
    where an order-independent use of [Hashtbl.iter] with a
    [[@lint.allow "D-hashtbl-iter" "..."]] justification, or a dense array
    when the keys are small ints, is the right trade. *)

val sorted_keys : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> 'k list
(** [sorted_keys ~cmp tbl] is the distinct keys of [tbl] in ascending
    [cmp] order. *)

val iter :
  cmp:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter ~cmp f tbl] applies [f] to each distinct binding of [tbl] in
    ascending key order. *)

val fold :
  cmp:('k -> 'k -> int) ->
  ('k -> 'v -> 'acc -> 'acc) ->
  ('k, 'v) Hashtbl.t ->
  'acc ->
  'acc
(** [fold ~cmp f tbl init] folds [f] over the distinct bindings of [tbl]
    in ascending key order. *)

val bindings : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** [bindings ~cmp tbl] is the distinct bindings of [tbl] sorted by key —
    [Hashtbl.to_seq] made deterministic. *)

(** The same discipline for [Hashtbl.Make] instances ([T-hashtbl-iter]);
    pass the key module's own [compare] as [~cmp]. Typical use:

    {[
      module Uid_tbl = Hashtbl.Make (Uid)
      module Det_uid_tbl = Analysis.Det_tbl.Keyed (Uid_tbl)

      let resend t = Det_uid_tbl.iter ~cmp:Uid.compare (fun _ e -> send e) t
    ]} *)
module Keyed (T : Hashtbl.S) : sig
  val sorted_keys : cmp:(T.key -> T.key -> int) -> 'v T.t -> T.key list
  (** Distinct keys in ascending [cmp] order. *)

  val iter : cmp:(T.key -> T.key -> int) -> (T.key -> 'v -> unit) -> 'v T.t -> unit
  (** Apply [f] to each distinct binding in ascending key order. *)

  val fold :
    cmp:(T.key -> T.key -> int) ->
    (T.key -> 'v -> 'acc -> 'acc) ->
    'v T.t ->
    'acc ->
    'acc
  (** Fold over the distinct bindings in ascending key order. *)

  val bindings : cmp:(T.key -> T.key -> int) -> 'v T.t -> (T.key * 'v) list
  (** Distinct bindings sorted by key. *)
end
