(* The host-speed reference behind [wall_s] and [setup_s].

   On a shared host the processor's speed drifts by tens of percent, for
   seconds or minutes at a time (co-tenants load the caches, the memory bus
   and the sibling hyperthread), and a round's CPU time drifts with its wall
   time, so no statistic of the raw times removes it. A frozen toy
   discrete-event loop — an ordered-map event queue, closures as events, a
   hashtable of live "transactions", small blocks — slows down with the
   simulator. The bench runs a short slice of it after every [run_for]
   chunk (at most one virtual second) and divides by the slices' speed.
   Because the slices follow simulated time, not the wall clock, both
   commits of a pair run the same slices at the same points, and the
   collections the slices force fall at the same points of every run of
   one seed, which makes [peak_rss_mb] repeat.

   The slices share the OCaml runtime with the simulator, so they must not
   share its garbage collection: a minor collection inside a slice would
   promote the simulator's young blocks, a major slice would mark and sweep
   its heap, and a change that made the simulator's collections dearer
   would slow the reference too and cancel its own cost. So before each
   slice the bench empties the minor heap and runs the major slice that
   this collection owes (both timed as the simulator's), and the slice
   allocates less than the minor heap holds; a slice in which a minor
   collection ran anyway, started by another domain or by the end of a
   major cycle, is left out of the speed. What the two still share is the
   processor — caches, memory bandwidth, the sibling hyperthread — which is
   what the reference is there to sample. README.md, "Run-to-run spread",
   has the check that a simulator change costing only collection work
   moves the normalised wall time as much as the raw one.

   Do not change the kernel or the slice size: every [wall_s] and [setup_s]
   baseline is expressed in their units. It uses the standard library only.
   Slices run on the main domain. *)

[@@@lint.allow "D-wallclock" "the benchmark measures real elapsed time by design"]

module Int_map = Map.Make (Int)

type kernel = {
  mutable queue : (unit -> unit) list Int_map.t;
  mutable clock : int;
  mutable draw_state : int;
  mutable next_id : int;
  live : (int, int array) Hashtbl.t;
}

let k = { queue = Int_map.empty; clock = 0; draw_state = 42; next_id = 0; live = Hashtbl.create 4096 }

let draw () =
  k.draw_state <- ((k.draw_state * 1103515245) + 12345) land 0x3fffffff;
  k.draw_state

let schedule delay f =
  let at = k.clock + delay in
  k.queue <- Int_map.update at (function None -> Some [ f ] | Some l -> Some (f :: l)) k.queue

(* Each arrival lives 200-1223 ticks, is looked up three times, and
   schedules the next arrival: the queue never empties. *)
let rec arrive () =
  k.next_id <- k.next_id + 1;
  let id = k.next_id in
  Hashtbl.replace k.live id (Array.make 6 id);
  for _ = 1 to 3 do
    schedule (1 + (draw () land 255)) (fun () -> ignore (Hashtbl.find_opt k.live (id - (draw () land 63))))
  done;
  schedule (200 + (draw () land 1023)) (fun () -> Hashtbl.remove k.live id);
  schedule (1 + (draw () land 31)) arrive

let () = schedule 1 arrive

(* About 90 minor-heap words per event: 2 000 events stay well inside the
   default 256k-word minor heap. *)
let slice_events = 2_000

(* One slice: the earliest instants' events until [slice_events] ran. *)
let slice () =
  let events = ref 0 in
  while !events < slice_events do
    let at, fs = Int_map.min_binding k.queue in
    k.queue <- Int_map.remove at k.queue;
    k.clock <- at;
    List.iter
      (fun f ->
        incr events;
        f ())
      (List.rev fs)
  done

(* A slice's wall time on the development host (a 2-core Intel Xeon
   container, OCaml 5.1.1), rounded: it turns the ratio back into seconds
   as that host would measure them. *)
let nominal_slice_s = 0.00052

type books = {
  mutable spent : float;  (** every slice. *)
  mutable words : float;
  mutable slices : int;
  mutable clean_spent : float;  (** the slices no collection ran in. *)
  mutable clean_slices : int;
}

let books = { spent = 0.; words = 0.; slices = 0; clean_spent = 0.; clean_slices = 0 }

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

let tick () =
  (* Without the major slice here, the runtime runs it at the slice's
     first allocation. *)
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let c0 = minor_collections () and w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  slice ();
  let dt = Unix.gettimeofday () -. t0 in
  books.words <- books.words +. (Gc.minor_words () -. w0);
  books.slices <- books.slices + 1;
  if minor_collections () = c0 then begin
    books.spent <- books.spent +. dt;
    books.clean_spent <- books.clean_spent +. dt;
    books.clean_slices <- books.clean_slices + 1
  end
  else
    (* Charged at the clean slices' mean: the collection's work stays with
       the simulator. *)
    books.spent <-
      books.spent
      +. if books.clean_slices = 0 then dt else books.clean_spent /. float_of_int books.clean_slices

(* Wall time and minor-heap words spent in slices so far: callers subtract
   them from what they measure. *)
let spent () = books.spent

let words () = books.words

(* Slices run so far, and how many of them a collection ran in. *)
let slices () = (books.slices, books.slices - books.clean_slices)

(* Development-host seconds per measured second since [since] (an earlier
   [mark ()]): multiply a wall time measured in that interval by it. At
   least one slice runs, so the ratio exists unless every slice since
   shared a collection; then it is 1. *)
type mark = { m_spent : float; m_slices : int }

let mark () = { m_spent = books.clean_spent; m_slices = books.clean_slices }

let speed_since m =
  tick ();
  let slices = books.clean_slices - m.m_slices in
  if slices = 0 then 1.
  else nominal_slice_s *. float_of_int slices /. (books.clean_spent -. m.m_spent)
