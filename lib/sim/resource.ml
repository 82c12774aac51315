type job = { duration : Sim_time.span; finish : unit -> unit; enqueued_at : Sim_time.t }

type t = {
  engine : Engine.t;
  name : string;
  servers : int;
  waiting : job Queue.t;
  mutable busy : int;
  (* Reset bumps the generation so stale completion events become no-ops. *)
  mutable generation : int;
  mutable busy_time : Sim_time.span;
  mutable completed : int;
  mutable total_wait : Sim_time.span;
}

let create engine ~name ~servers =
  if servers <= 0 then invalid_arg "Resource.create: servers must be positive";
  {
    engine;
    name;
    servers;
    waiting = Queue.create ();
    busy = 0;
    generation = 0;
    busy_time = Sim_time.span_zero;
    completed = 0;
    total_wait = Sim_time.span_zero;
  }

let name r = r.name
let servers r = r.servers
let queue_length r = Queue.length r.waiting
let in_service r = r.busy

let rec start_job r job =
  let generation = r.generation in
  r.busy <- r.busy + 1;
  let wait = Sim_time.diff (Engine.now r.engine) job.enqueued_at in
  let complete () =
    if r.generation = generation then begin
      r.busy <- r.busy - 1;
      r.busy_time <- Sim_time.span_add r.busy_time job.duration;
      r.completed <- r.completed + 1;
      r.total_wait <- Sim_time.span_add r.total_wait wait;
      dispatch r;
      job.finish ()
    end
  in
  Engine.schedule r.engine ~delay:job.duration complete

and dispatch r =
  if r.busy < r.servers && not (Queue.is_empty r.waiting) then begin
    let job = Queue.pop r.waiting in
    start_job r job
  end

let request r ~duration finish =
  let job = { duration; finish; enqueued_at = Engine.now r.engine } in
  if r.busy < r.servers then start_job r job else Queue.push job r.waiting

let reset r =
  r.generation <- r.generation + 1;
  r.busy <- 0;
  Queue.clear r.waiting

let busy_time r = r.busy_time
let jobs_completed r = r.completed
let total_wait r = r.total_wait

let utilisation r ~since =
  let window = Sim_time.span_to_us (Sim_time.diff (Engine.now r.engine) since) in
  if window = 0 then 0.
  else
    float_of_int (Sim_time.span_to_us r.busy_time)
    /. (float_of_int window *. float_of_int r.servers)
