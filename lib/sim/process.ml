type t = {
  engine : Engine.t;
  name : string;
  mutable alive : bool;
  mutable incarnation : int;
  mutable kill_hooks : (unit -> unit) list;
  mutable restart_hooks : (unit -> unit) list;
}

let create engine ~name =
  { engine; name; alive = true; incarnation = 0; kill_hooks = []; restart_hooks = [] }

let name p = p.name
let engine p = p.engine
let alive p = p.alive
let incarnation p = p.incarnation

let kill p =
  if p.alive then begin
    p.alive <- false;
    p.incarnation <- p.incarnation + 1;
    List.iter (fun f -> f ()) (List.rev p.kill_hooks)
  end

let restart p =
  if not p.alive then begin
    p.alive <- true;
    p.incarnation <- p.incarnation + 1;
    List.iter (fun f -> f ()) (List.rev p.restart_hooks)
  end

let guard p f =
  let born = p.incarnation in
  fun () -> if p.alive && p.incarnation = born then f ()

let after p d f = Engine.schedule p.engine ~delay:d (guard p f)

let periodic p ~every f =
  let born = p.incarnation in
  let rec tick () =
    if p.alive && p.incarnation = born then begin
      f ();
      Engine.schedule p.engine ~delay:every tick
    end
  in
  Engine.schedule p.engine ~delay:every tick

let on_kill p f = p.kill_hooks <- f :: p.kill_hooks
let on_restart p f = p.restart_hooks <- f :: p.restart_hooks
