type t = {
  params : Params.t;
  rng : Sim.Rng.t;
  id_base : int;
  id_stride : int;
  pick : (Sim.Rng.t -> int) option;
  mutable counter : int;
}

let create ?(id_base = 0) ?(id_stride = 1) ?pick params rng =
  if id_stride < 1 then invalid_arg "Generator.create: stride must be positive";
  if id_base < 0 then invalid_arg "Generator.create: negative id base";
  { params; rng; id_base; id_stride; pick; counter = 0 }

let pick_item g =
  match g.pick with
  | Some f -> f g.rng
  | None ->
    let p = g.params in
    if p.Params.hot_items > 0 && Sim.Rng.bool g.rng p.Params.hot_fraction then
      Sim.Rng.int g.rng (Int.min p.Params.hot_items p.Params.items)
    else Sim.Rng.int g.rng p.Params.items

let alloc_id g =
  let id = g.id_base + (g.counter * g.id_stride) in
  g.counter <- g.counter + 1;
  id

let next g ~client =
  let p = g.params in
  let id = alloc_id g in
  let length = Sim.Rng.uniform_int g.rng p.Params.tx_length_min p.Params.tx_length_max in
  let op _ =
    let item = pick_item g in
    if Sim.Rng.bool g.rng p.Params.write_probability then Db.Op.Write (item, id)
    else Db.Op.Read item
  in
  let ops = List.init length op in
  (* A transaction with no operation that reads or writes would be invalid;
     lengths are >= 1 by construction of the parameters. *)
  Db.Transaction.make ~id ~client ops

let next_id g = g.id_base + (g.counter * g.id_stride)
let generated g = g.counter
