type t = { mutable running : bool; mutable count : int }

let open_poisson engine ~rng ~rate_tps submit =
  if rate_tps <= 0. then invalid_arg "Arrival.open_poisson: rate must be positive";
  let t = { running = true; count = 0 } in
  let mean = Sim.Sim_time.span_s (1. /. rate_tps) in
  let rec arrive () =
    if t.running then begin
      t.count <- t.count + 1;
      submit ();
      Sim.Engine.schedule engine ~delay:(Sim.Rng.exponential_span rng ~mean) arrive
    end
  in
  Sim.Engine.schedule engine ~delay:(Sim.Rng.exponential_span rng ~mean) arrive;
  t

let closed_loop engine ~rng ~clients ~think_time submit =
  let t = { running = true; count = 0 } in
  let rec think_then_submit () =
    Sim.Engine.schedule engine
      ~delay:(Sim.Rng.exponential_span rng ~mean:think_time)
      (fun () ->
        if t.running then begin
          t.count <- t.count + 1;
          submit ~done_:think_then_submit
        end)
  in
  for _ = 1 to clients do
    think_then_submit ()
  done;
  t

let stop t = t.running <- false
let arrivals t = t.count
