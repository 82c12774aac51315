type gated = {
  process : Sim.Process.t;
  delay : unit -> Sim.Sim_time.span;
  queue : (unit -> unit) Queue.t;
  mutable release : Sim.Sim_time.t;  (* no held delivery releases before this *)
}

type t = Pass | Gate of gated

let pass = Pass

let create process ~delay =
  let g = { process; delay; queue = Queue.create (); release = Sim.Sim_time.zero } in
  Sim.Process.on_kill process (fun () -> Queue.clear g.queue);
  Gate g

let run_next g = match Queue.take_opt g.queue with Some k -> k () | None -> ()

let gate t k =
  match t with
  | Pass -> k ()
  | Gate g ->
    let engine = Sim.Process.engine g.process in
    let now = Sim.Engine.now engine in
    let due = Sim.Sim_time.max (Sim.Sim_time.add now (g.delay ())) g.release in
    g.release <- due;
    Queue.push k g.queue;
    (* The release event pops whatever is oldest; a flush in between leaves
       it a harmless no-op on the emptied queue. *)
    Sim.Process.after g.process (Sim.Sim_time.diff due now) (fun () -> run_next g)

let flush t =
  match t with
  | Pass -> ()
  | Gate g ->
    g.release <- Sim.Engine.now (Sim.Process.engine g.process);
    while not (Queue.is_empty g.queue) do
      run_next g
    done

let held t = match t with Pass -> 0 | Gate g -> Queue.length g.queue
