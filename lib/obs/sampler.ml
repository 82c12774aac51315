(* Periodic resource sampling on the virtual clock.

   Every [every] of simulated time the sampler reads a resource's queue
   depth and busy-time delta and feeds them into the registry:

     <name>.queue          histogram of (queued + in service) at each tick
     <name>.queue_max      gauge of the deepest queue seen
     <name>.util_permille  histogram of per-interval utilisation, 0..1000

   Sampling events read simulation state but never mutate it and consume
   no randomness, so attaching a sampler cannot perturb the simulated
   system — application events keep their exact (time, seq) order. The
   tick chain reschedules itself forever; attach only to engines driven
   with a bounded [Engine.run ~until] (true of every harness run). *)

let attach engine ~registry ~name ~every resource =
  let queue_h = Registry.histogram registry (name ^ ".queue") in
  let queue_max = Registry.gauge_max registry (name ^ ".queue_max") in
  let util_h = Registry.histogram registry (name ^ ".util_permille") in
  let every_us = Sim.Sim_time.span_to_us every in
  if every_us = 0 then invalid_arg "Obs.Sampler.attach: zero interval";
  let capacity_us = every_us * Sim.Resource.servers resource in
  let last_busy = ref (Sim.Sim_time.span_to_us (Sim.Resource.busy_time resource)) in
  let rec tick () =
    Sim.Engine.schedule engine ~delay:every (fun () ->
        let depth = Sim.Resource.queue_length resource + Sim.Resource.in_service resource in
        Histogram.add queue_h depth;
        Registry.observe_max queue_max depth;
        let busy = Sim.Sim_time.span_to_us (Sim.Resource.busy_time resource) in
        let permille = 1000 * (busy - !last_busy) / capacity_us in
        last_busy := busy;
        Histogram.add util_h (Stdlib.min 1000 permille);
        tick ())
  in
  tick ()
