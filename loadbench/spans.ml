(* Wall-clock spans recorded by the benchmark around every call it makes
   into a layer (spans at layer boundaries, kept in memory, written at
   exit). Only the traced run records; untraced runs pay
   one branch per call. The bench cannot see which layer's closures the
   engine runs inside one [run_for]: that needs an in-program layer tag. *)

[@@@lint.allow "D-wallclock" "the benchmark measures real elapsed time by design"]

let now = Unix.gettimeofday

type span = {
  id : int;
  parent : int;  (** 0 at the root. *)
  cell : int;  (** the simulated run the span belongs to; 0 outside cells. *)
  name : string;
  layer : string;
  start : float;
  stop : float;
}

type state = {
  mutable enabled : bool;
  mutable next_id : int;
  mutable stack : int list;  (** open span ids, innermost first. *)
  mutable cell : int;
  mutable closed : span list;  (** newest first. *)
  origin : float;
}

(* One recorder per process, driven from the main domain only: shard
   domains never call into it (barrier times come back through
   [on_exchange], which runs on the coordinating domain). *)
let st = { enabled = false; next_id = 1; stack = []; cell = 0; closed = []; origin = now () }

(* Forget every recorded span and record from now on iff [enabled]. *)
let start ~enabled =
  st.enabled <- enabled;
  st.closed <- []

(* Run [f] with recording paused: the untraced side of an A/B pair. *)
let without f =
  let saved = st.enabled in
  st.enabled <- false;
  Fun.protect ~finally:(fun () -> st.enabled <- saved) f

let span ~layer name f =
  if not st.enabled then f ()
  else begin
    let id = st.next_id in
    st.next_id <- id + 1;
    let parent = match st.stack with p :: _ -> p | [] -> 0 in
    st.stack <- id :: st.stack;
    let start = now () in
    let finish () =
      st.stack <- List.tl st.stack;
      st.closed <- { id; parent; cell = st.cell; name; layer; start; stop = now () } :: st.closed
    in
    Fun.protect ~finally:finish f
  end

(* Spans recorded inside [f] carry a fresh cell id. *)
let in_cell f =
  let saved = st.cell in
  st.cell <- st.next_id;
  Fun.protect ~finally:(fun () -> st.cell <- saved) f

let spans () = List.rev st.closed

let to_trace_events () =
  List.map
    (fun s ->
      {
        Obs.Tracer.name = s.name;
        cat = s.layer;
        ph = Obs.Tracer.Complete;
        tid = 0;
        ts_us = int_of_float ((s.start -. st.origin) *. 1e6);
        dur_us = int_of_float ((s.stop -. s.start) *. 1e6);
        args =
          [
            ("span", string_of_int s.id);
            ("parent", string_of_int s.parent);
            ("cell", string_of_int s.cell);
          ];
      })
    (spans ())

(* Self time per layer: each span's duration minus the part its children
   cover (children nest inside their parent, so a sum suffices). *)
let self_time_by_layer () =
  let all = spans () in
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let prev = Option.value (Hashtbl.find_opt children s.parent) ~default:0. in
      Hashtbl.replace children s.parent (prev +. d))
    all;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = s.stop -. s.start -. Option.value (Hashtbl.find_opt children s.id) ~default:0. in
      let prev = Option.value (Hashtbl.find_opt by_layer s.layer) ~default:0. in
      Hashtbl.replace by_layer s.layer (prev +. own))
    all;
  Analysis.Det_tbl.bindings ~cmp:String.compare by_layer
