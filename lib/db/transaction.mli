(** Transactions.

    A transaction is a client-issued sequence of operations. Its read and
    write sets are derived from the operations; the write set, shipped as a
    {!writeset}, is what the replication techniques broadcast. *)

type id = int
(** Globally unique transaction identifier (assigned by the client layer). *)

type t = {
  id : id;
  client : int;  (** issuing client. *)
  ops : Op.t list;  (** operations in program order. *)
}

val make : id:id -> client:int -> Op.t list -> t
(** @raise Invalid_argument if [ops] is empty. *)

val read_set : t -> int list
(** Items read, ascending, without duplicates. *)

val write_set : t -> int list
(** Items written, ascending, without duplicates. *)

val writes : t -> (int * int) list
(** The (item, value) pairs the transaction installs, in program order,
    keeping only the last write per item. *)

val is_update : t -> bool
(** Whether the transaction writes anything (read-only transactions need no
    broadcast). *)

val op_count : t -> int

type writeset = {
  tx_id : id;
  ws_client : int;
  read_items : int list;
  write_values : (int * int) list;
}
(** What gets broadcast: enough to certify (read and write sets) and to
    apply (write values). *)

val to_writeset : t -> writeset

val pp : Format.formatter -> t -> unit
