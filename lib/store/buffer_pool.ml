type t = { rng : Sim.Rng.t; ratio : float }

let create rng ratio =
  if ratio < 0. || ratio > 1. then invalid_arg "Buffer_pool.create: ratio out of range";
  { rng; ratio }

let read pool = Sim.Rng.bool pool.rng pool.ratio
