type t = {
  items : int;
  servers : int;
  clients_per_server : int;
  disks_per_server : int;
  cpus_per_server : int;
  tx_length_min : int;
  tx_length_max : int;
  write_probability : float;
  buffer_hit_ratio : float;
  io_time_min : Sim.Sim_time.span;
  io_time_max : Sim.Sim_time.span;
  cpu_per_io : Sim.Sim_time.span;
  network_transit : Sim.Sim_time.span;
  cpu_per_net_op : Sim.Sim_time.span;
  hot_fraction : float;
  hot_items : int;
  group_commit : bool;
  drop_probability : float;
}

let table4 =
  {
    items = 10_000;
    servers = 9;
    clients_per_server = 4;
    disks_per_server = 2;
    cpus_per_server = 2;
    tx_length_min = 10;
    tx_length_max = 20;
    write_probability = 0.5;
    buffer_hit_ratio = 0.2;
    io_time_min = Sim.Sim_time.span_ms 4.;
    io_time_max = Sim.Sim_time.span_ms 12.;
    cpu_per_io = Sim.Sim_time.span_ms 0.4;
    network_transit = Sim.Sim_time.span_ms 0.07;
    cpu_per_net_op = Sim.Sim_time.span_ms 0.07;
    hot_fraction = 0.17;
    hot_items = 200;
    group_commit = true;
    drop_probability = 0.;
  }

let db_config p =
  {
    Db.Db_engine.items = p.items;
    io_time_min = p.io_time_min;
    io_time_max = p.io_time_max;
    cpu_per_io = p.cpu_per_io;
    buffer_hit_ratio = p.buffer_hit_ratio;
    group_commit = p.group_commit;
  }

let rows p =
  let span_ms d = Printf.sprintf "%g ms" (Sim.Sim_time.span_to_ms d) in
  let span_range a b =
    Printf.sprintf "%g - %g ms" (Sim.Sim_time.span_to_ms a) (Sim.Sim_time.span_to_ms b)
  in
  [
    ("Number of items in the database", string_of_int p.items);
    ("Number of Servers", string_of_int p.servers);
    ("Number of Clients per Server", string_of_int p.clients_per_server);
    ("Disks per Server", string_of_int p.disks_per_server);
    ("CPUs per Server", string_of_int p.cpus_per_server);
    ( "Transaction Length",
      Printf.sprintf "%d - %d Operations" p.tx_length_min p.tx_length_max );
    ( "Probability that an operation is a write",
      Printf.sprintf "%g%%" (100. *. p.write_probability) );
    ( "Probability that an operation is a query",
      Printf.sprintf "%g%%" (100. *. (1. -. p.write_probability)) );
    ("Buffer hit ratio", Printf.sprintf "%g%%" (100. *. p.buffer_hit_ratio));
    ("Time for a read", span_range p.io_time_min p.io_time_max);
    ("Time for a write", span_range p.io_time_min p.io_time_max);
    ("CPU Time used for an I/O operation", span_ms p.cpu_per_io);
    ("Time for a message or a broadcast on the Network", span_ms p.network_transit);
    ("CPU time for a network operation", span_ms p.cpu_per_net_op);
    ("Hot-set fraction of accesses (extension)", Printf.sprintf "%g%%" (100. *. p.hot_fraction));
    ("Hot-set size (extension)", string_of_int p.hot_items);
  ]

let pp ppf p =
  List.iter (fun (k, v) -> Format.fprintf ppf "%-50s %s@." k v) (rows p)
