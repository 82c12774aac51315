(** Simulator parameters (paper, Table 4).

    One record gathers every knob of the evaluation setup. {!table4} is the
    paper's configuration verbatim; experiments derive variants from it.
    Two fields extend the published table: access skew ([hot_fraction] over
    [hot_items]) defaults to a mild hot spot so that certification produces
    a visible abort rate, as in the paper's runs (§6 reports just under
    7 %). *)

type t = {
  items : int;  (** number of items in the database. *)
  servers : int;  (** number of servers. *)
  clients_per_server : int;  (** number of clients per server. *)
  disks_per_server : int;  (** disks per server. *)
  cpus_per_server : int;  (** CPUs per server. *)
  tx_length_min : int;  (** minimum operations per transaction. *)
  tx_length_max : int;  (** maximum operations per transaction. *)
  write_probability : float;  (** probability that an operation is a write. *)
  buffer_hit_ratio : float;  (** buffer hit ratio. *)
  io_time_min : Sim.Sim_time.span;  (** fastest read or write. *)
  io_time_max : Sim.Sim_time.span;  (** slowest read or write. *)
  cpu_per_io : Sim.Sim_time.span;  (** CPU time per I/O operation. *)
  network_transit : Sim.Sim_time.span;  (** message or broadcast transit time. *)
  cpu_per_net_op : Sim.Sim_time.span;  (** CPU time per network operation. *)
  hot_fraction : float;  (** fraction of accesses that target the hot set. *)
  hot_items : int;  (** size of the hot set. *)
  group_commit : bool;  (** batch log flushes (ablation: one flush per record). *)
  drop_probability : float;
      (** independent network message loss probability (ablation; 0 on the
          paper's LAN). *)
}

val table4 : t
(** The paper's Table 4: 10 000 items, 9 servers, 4 clients/server,
    2 disks, 2 CPUs, 10–20 operations, 50 % writes, 20 % buffer hits,
    4–12 ms I/O, 0.4 ms CPU/I/O, 0.07 ms network / network CPU. *)

val db_config : t -> Db.Db_engine.config
(** The database-engine configuration induced by the parameters. *)

val rows : t -> (string * string) list
(** Human-readable (parameter, value) rows in the paper's order, for
    regenerating Table 4. *)

val pp : Format.formatter -> t -> unit
