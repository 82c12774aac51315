type t = {
  engine : Sim.Engine.t;
  responses : Sim.Stats.series;
  mutable warmup : Sim.Sim_time.t;
  mutable commits : int;
  mutable aborts : int;
}

let create engine =
  {
    engine;
    responses = Sim.Stats.series "response_ms";
    warmup = Sim.Sim_time.zero;
    commits = 0;
    aborts = 0;
  }

let set_warmup t at = t.warmup <- at

let past_warmup t = Sim.Sim_time.(Sim.Engine.now t.engine >= t.warmup)

let record t ~submitted outcome =
  if past_warmup t then begin
    if Sim.Sim_time.(submitted >= t.warmup) then
      Sim.Stats.add t.responses
        (Sim.Sim_time.span_to_ms (Sim.Sim_time.diff (Sim.Engine.now t.engine) submitted));
    match outcome with
    | Db.Testable_tx.Committed -> t.commits <- t.commits + 1
    | Db.Testable_tx.Aborted -> t.aborts <- t.aborts + 1
  end

let responses t = t.responses
let mean_response_ms t = Sim.Stats.mean t.responses
let p95_response_ms t = Sim.Stats.percentile t.responses 95.
let commits t = t.commits
let aborts t = t.aborts

let abort_rate t =
  let decided = t.commits + t.aborts in
  if decided = 0 then nan else float_of_int t.aborts /. float_of_int decided

let throughput_tps t ~since =
  let elapsed = Sim.Sim_time.span_to_ms (Sim.Sim_time.diff (Sim.Engine.now t.engine) since) in
  if elapsed <= 0. then nan else float_of_int t.commits /. (elapsed /. 1000.)
