let after sys span f = ignore (Sim.Engine.schedule (System.engine sys) ~delay:span f)

let crash_at sys ~after:span i = after sys span (fun () -> System.crash sys i)
let recover_at sys ~after:span i = after sys span (fun () -> System.recover sys i)

let crash_storm sys ~rng ~duration ~max_down ~mean_up ~mean_down =
  let deadline = Sim.Sim_time.add (System.now sys) duration in
  let down = ref 0 in
  (* One independent stream per server, split up front: a server's draws
     depend only on the seed and its index, never on how the servers'
     events interleave, so storm schedules replay under perturbation. *)
  let rec schedule_crash i server_rng =
    let delay = Sim.Rng.exponential_span server_rng ~mean:mean_up in
    after sys delay (fun () ->
        if Sim.Sim_time.(System.now sys < deadline) then begin
          if !down < max_down && System.alive sys i then begin
            incr down;
            System.crash sys i;
            let outage = Sim.Rng.exponential_span server_rng ~mean:mean_down in
            after sys outage (fun () ->
                decr down;
                System.recover sys i;
                schedule_crash i server_rng)
          end
          else schedule_crash i server_rng
        end)
  in
  for i = 0 to System.n_servers sys - 1 do
    schedule_crash i (Sim.Rng.split rng)
  done
