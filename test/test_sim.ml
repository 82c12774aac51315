(* Unit and property tests for the discrete-event simulation kernel. *)

open Sim

let ms = Sim_time.span_ms
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Sim_time ---- *)

let test_time_conversions () =
  check_int "us roundtrip" 42 (Sim_time.to_us (Sim_time.of_us 42));
  check_int "ms to us" 2500 (Sim_time.span_to_us (ms 2.5));
  check_int "s to us" 1_500_000 (Sim_time.span_to_us (Sim_time.span_s 1.5));
  Alcotest.(check (float 1e-9)) "span to ms" 2.5 (Sim_time.span_to_ms (ms 2.5));
  check_int "add" 30 (Sim_time.to_us (Sim_time.add (Sim_time.of_us 10) (Sim_time.span_us 20)));
  check_int "diff" 20
    (Sim_time.span_to_us (Sim_time.diff (Sim_time.of_us 30) (Sim_time.of_us 10)))

let test_time_invalid () =
  Alcotest.check_raises "negative instant" (Invalid_argument "Sim_time.of_us: negative")
    (fun () -> ignore (Sim_time.of_us (-1)));
  Alcotest.check_raises "negative span" (Invalid_argument "Sim_time.span_us: negative")
    (fun () -> ignore (Sim_time.span_us (-5)));
  Alcotest.check_raises "negative diff" (Invalid_argument "Sim_time.diff: negative span")
    (fun () -> ignore (Sim_time.diff (Sim_time.of_us 1) (Sim_time.of_us 2)))

(* ---- Event_queue ---- *)

let test_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:(Sim_time.of_us 30) "c";
  Event_queue.add q ~time:(Sim_time.of_us 10) "a";
  Event_queue.add q ~time:(Sim_time.of_us 20) "b";
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "!" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ];
  check_bool "empty" true (Event_queue.is_empty q)

let test_queue_fifo_at_equal_times () =
  let q = Event_queue.create () in
  let t = Sim_time.of_us 5 in
  List.iter (fun v -> Event_queue.add q ~time:t v) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Event_queue.pop q with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (drain [])

let prop_queue_pops_sorted =
  QCheck2.Test.make ~name:"event queue pops in time order" ~count:200
    QCheck2.Gen.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.add q ~time:(Sim_time.of_us t) i) times;
      let rec drain acc =
        match Event_queue.pop q with Some (t, _) -> drain (t :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      List.length popped = List.length times
      && List.for_all2 Sim_time.equal popped
           (List.sort Sim_time.compare (List.map Sim_time.of_us times)))

(* Model-based fuzz: drive the queue with a random add/pop script and check
   every observable — pop order and payload pairing, length, next_time_us —
   against a naive sorted-list model after every single operation, along
   with the structural invariants of the heap, the slot table and the lanes
   ([Event_queue.heap_ok]). The script keeps a clock like the engine's (the
   latest popped time) and every add carries a delay from it: one of twelve
   repeated values, so more delays recur than there are lanes and lanes
   change hands; a one-off value; zero; or a stale delay, whose time lies
   up to 30 us before [clock + delay] and so often before its lane's tail.
   A growing phase (adds outnumber pops three to one over 700+ operations)
   grows the arrays several times and holds well over 256 live entries; a
   draining phase (pops outnumber adds two to one) empties lanes so they
   are reassigned. Small delays force many equal-time ties so the FIFO
   sequence numbers do real work. *)
type queue_op = Add of int * int (* delay, how far the time lies before clock + delay *) | Pop

let prop_queue_matches_naive_model =
  let pick_delay =
    QCheck2.Gen.(
      frequency
        [
          (6, oneofl [ 0; 1; 2; 3; 4; 5; 6; 8; 10; 13; 16; 20 ]);
          (1, int_range 1_000 1_000_000);
          (1, pure 0);
        ])
  in
  let add =
    QCheck2.Gen.(
      map2
        (fun d stale -> Add (d, stale))
        pick_delay
        (frequency [ (5, pure 0); (1, int_range 1 30) ]))
  in
  QCheck2.Test.make ~name:"event queue agrees with a sorted-list model" ~count:100
    QCheck2.Gen.(
      map2 ( @ )
        (list_size (int_range 700 1_500) (frequency [ (3, add); (1, pure Pop) ]))
        (list_size (int_range 300 800) (frequency [ (1, add); (2, pure Pop) ])))
    (fun script ->
      let q = Event_queue.create () in
      let model = ref [] in
      let clock = ref 0 in
      let next_seq = ref 0 in
      let ok = ref true in
      let require b = if not b then ok := false in
      let step op =
        (match op with
        | Add (d, stale) ->
          let t = Stdlib.max 0 (!clock + d - stale) in
          let payload = !next_seq in
          Event_queue.add_delayed q ~time:(Sim_time.of_us t) ~delay:(Sim_time.span_us d) payload;
          (* (time, seq) is a total order — no ties survive the merge. *)
          model := List.merge compare !model [ (t, payload) ];
          incr next_seq
        | Pop -> (
          match (Event_queue.pop q, !model) with
          | None, [] -> ()
          | Some (time, v), (t, payload) :: rest ->
            model := rest;
            clock := Stdlib.max !clock t;
            require (Sim_time.to_us time = t && v = payload)
          | Some _, [] | None, _ :: _ -> require false));
        require (Event_queue.length q = List.length !model);
        require (Event_queue.heap_ok q);
        require
          (Event_queue.next_time_us q
          = (match !model with [] -> max_int | (t, _) :: _ -> t))
      in
      List.iter step script;
      (* Drain what the script left behind, then pop once on empty. *)
      while !model <> [] do
        step Pop
      done;
      step Pop;
      !ok)

(* Popped and cleared events must become unreachable: a binary heap that
   moves the last entry to the root on pop leaves the old closure reachable
   at the vacated slot unless it is explicitly cleared — a space leak when
   payloads capture large state. The helpers are [@inline never] so no
   local in the test frame pins the payload across the GC. *)

let[@inline never] add_tracked ?delay q collected =
  let state = ref 0 in
  Gc.finalise (fun _ -> collected := true) state;
  let time = Sim_time.of_us 1 and f () = incr state in
  match delay with
  | None -> Event_queue.add q ~time f
  | Some delay -> Event_queue.add_delayed q ~time ~delay f

let[@inline never] pop_ignore q = ignore (Event_queue.pop q)

(* The tracked closure pops first while later events stay queued: its slot
   goes back on the free stack with live slots all around it. In the lane
   case the closure is its lane's head (the delay's first sighting, at time
   0, stayed in the heap) and later entries of the same lane stay queued
   behind it. *)
let test_queue_pop_releases_payload () =
  let q = Event_queue.create () in
  for i = 2 to 40 do
    Event_queue.add q ~time:(Sim_time.of_us i) ignore
  done;
  let collected = ref false in
  add_tracked q collected;
  pop_ignore q;
  Gc.full_major ();
  check_bool "popped closure collected" true !collected;
  check_int "later events still queued" 39 (Event_queue.length q);
  let q = Event_queue.create () in
  let delay = Sim_time.span_us 5 in
  Event_queue.add_delayed q ~time:Sim_time.zero ~delay ignore;
  let collected = ref false in
  add_tracked ~delay q collected;
  for i = 2 to 40 do
    Event_queue.add_delayed q ~time:(Sim_time.of_us i) ~delay ignore
  done;
  pop_ignore q;
  pop_ignore q;
  Gc.full_major ();
  check_bool "closure popped from a lane collected" true !collected;
  check_int "later lane entries still queued" 39 (Event_queue.length q);
  check_bool "lane invariants" true (Event_queue.heap_ok q)

let test_queue_clear_releases_payloads () =
  let q = Event_queue.create () in
  let collected = ref false in
  add_tracked q collected;
  Event_queue.clear q;
  Gc.full_major ();
  check_bool "cleared payload collected" true !collected

let test_queue_fast_path_accessors () =
  let q : int Event_queue.t = Event_queue.create () in
  check_int "next_time_us on empty" max_int (Event_queue.next_time_us q);
  Alcotest.check_raises "pop_value on empty"
    (Invalid_argument "Event_queue.pop_value: empty queue") (fun () ->
      ignore (Event_queue.pop_value q));
  Event_queue.add q ~time:(Sim_time.of_us 70) 7;
  Event_queue.add q ~time:(Sim_time.of_us 20) 2;
  check_int "next_time_us is the top" 20 (Event_queue.next_time_us q);
  check_int "pop_value pops the top" 2 (Event_queue.pop_value q);
  check_int "next_time_us advances" 70 (Event_queue.next_time_us q)

let test_queue_add_steady_state_no_alloc () =
  let q = Event_queue.create () in
  (* Grow the arrays past what the measured loop needs, then drain. *)
  for i = 1 to 1024 do
    Event_queue.add q ~time:(Sim_time.of_us i) i
  done;
  while Event_queue.pop q <> None do
    ()
  done;
  let before = Gc.minor_words () in
  for i = 1 to 512 do
    Event_queue.add q ~time:(Sim_time.of_us i) i
  done;
  let words = Gc.minor_words () -. before in
  (* The Gc.minor_words calls themselves box a float; anything per-add
     would cost >= 512 words. *)
  check_bool "no per-add allocation" true (words < 100.)

(* The engine's hot loop pops with [next_time_us] + [pop_value]; neither
   may allocate once the arrays have grown, however deep the sift. *)
let test_queue_pop_value_steady_state_no_alloc () =
  let q = Event_queue.create () in
  for i = 1 to 1024 do
    Event_queue.add q ~time:(Sim_time.of_us ((i * 7919) land 1023)) i
  done;
  let before = Gc.minor_words () in
  let sum = ref 0 in
  while Event_queue.next_time_us q < max_int do
    sum := !sum + Event_queue.pop_value q
  done;
  let words = Gc.minor_words () -. before in
  check_int "every payload popped once" (1024 * 1025 / 2) !sum;
  check_bool "no per-pop allocation" true (words < 100.)

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_copy_and_split () =
  let a = Rng.create 3L in
  let c = Rng.copy a in
  Alcotest.(check int64) "copy equal" (Rng.int64 a) (Rng.int64 c);
  let s = Rng.split a in
  check_bool "split differs" true (Rng.int64 s <> Rng.int64 a)

(* splitmix64's finaliser is a bijection of 64-bit words, so inverting it
   yields the seed whose next raw output is any chosen word: xor-shifts are
   undone by iterating to their fixed point, odd multipliers by their
   inverse modulo 2^64 (Newton's iteration doubles the correct low bits). *)
let rng_with_next output =
  let unxorshift z k =
    let rec go x =
      let x' = Int64.logxor z (Int64.shift_right_logical x k) in
      if Int64.equal x' x then x else go x'
    in
    go z
  in
  let inverse c =
    let rec go x n = if n = 0 then x else go (Int64.mul x (Int64.sub 2L (Int64.mul c x))) (n - 1) in
    go c 6
  in
  let z = unxorshift output 31 in
  let z = unxorshift (Int64.mul z (inverse 0x94D049BB133111EBL)) 27 in
  let state = unxorshift (Int64.mul z (inverse 0xBF58476D1CE4E5B9L)) 30 in
  Rng.create (Int64.sub state 0x9E3779B97F4A7C15L)

(* [Rng.int] draws 63 raw bits and rejects a draw in the incomplete last
   block of [n] values below 2^63, never one in the first block. *)
let test_rng_int_rejects_only_the_last_block () =
  let raw r = Int64.shift_right_logical (Rng.int64 r) 1 in
  let r = rng_with_next 10L in
  Alcotest.(check int64) "seeded raw draw" 5L (raw (Rng.copy r));
  let after = Rng.copy r in
  ignore (Rng.int64 after);
  check_int "first block accepted" 5 (Rng.int r 1000);
  Alcotest.(check int64) "one draw consumed" (Rng.int64 after) (Rng.int64 r);
  let r = rng_with_next (-1L) in
  let c = Rng.copy r in
  Alcotest.(check int64) "seeded raw draw" Int64.max_int (raw c);
  let next = Int64.to_int (Int64.rem (raw c) 1000L) in
  check_int "last block rejected" next (Rng.int r 1000);
  Alcotest.(check int64) "two draws consumed" (Rng.int64 c) (Rng.int64 r)

let prop_rng_int_bounds =
  QCheck2.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck2.Gen.(pair (int_range 1 1000) int)
    (fun (n, seed) ->
      let r = Rng.create (Int64.of_int seed) in
      let v = Rng.int r n in
      v >= 0 && v < n)

let prop_rng_uniform_int_bounds =
  QCheck2.Test.make ~name:"Rng.uniform_int stays in inclusive range" ~count:500
    QCheck2.Gen.(triple (int_range (-50) 50) (int_range 0 100) int)
    (fun (a, width, seed) ->
      let b = a + width in
      let r = Rng.create (Int64.of_int seed) in
      let v = Rng.uniform_int r a b in
      v >= a && v <= b)

let test_rng_exponential_mean () =
  let r = Rng.create 11L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:5.
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 5" true (mean > 4.8 && mean < 5.2)

let test_rng_bool_probability () =
  let r = Rng.create 13L in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool r 0.3 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int n in
  check_bool "ratio near 0.3" true (ratio > 0.28 && ratio < 0.32)

(* The output stream is part of the generator's contract: every seeded
   run, golden and corpus depends on it. These values were recorded from
   the boxed-state generator the byte-state one replaced, so a change to
   how the state is stored or a draw is computed shows up here first. *)
let test_rng_stream_pinned () =
  let check_int64s name expected actual = Alcotest.(check (list int64)) name expected actual in
  let int64s r n = List.init n (fun _ -> Rng.int64 r) in
  check_int64s "seed 0"
    [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L; -537132696929009172L;
      1961750202426094747L; 6038094601263162090L; 3207296026000306913L; -4214222208109204676L;
      4532161160992623299L; -884877559730491226L; 7313543279846440201L; -4408136866661146890L;
      -8781561602181964933L; -8205710985559103185L; -5382347917484077799L; -8882435919750266709L ]
    (int64s (Rng.create 0L) 16);
  check_int64s "seed 1"
    [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L; 8196980753821780235L;
      8195237237126968761L; -4373826470845021568L; -2262517385565684571L; -8797857673641491083L;
      5266705631892356520L; -3800091893662914666L; 7455107161863376737L; -7278709470210847746L;
      8392123148533390784L; -8668512467949215094L; 8042142155559163816L; 3081251696030599739L ]
    (int64s (Rng.create 1L) 16);
  check_int64s "seed 2^63-1"
    [ 3055647633038352039L; -1005427240264861369L; -1435078927205645936L; 2314904739866303483L;
      5990184416167851723L; 2076871689085313299L; 3255033911170563879L; -8354410678317521450L;
      -3590066590701544131L; -2825049472176592815L; -3020117430252748001L; 2515297480572808503L;
      -6144313832865365200L; -5096421992473659725L; -6008886388274919257L; -6580451751592564817L ]
    (int64s (Rng.create Int64.max_int) 16);
  let r = Rng.create 42L in
  let ints n = List.init 16 (fun _ -> Rng.int r n) in
  Alcotest.(check (list int)) "int 1" (List.init 16 (fun _ -> 0)) (ints 1);
  Alcotest.(check (list int)) "int 7" [ 1; 5; 5; 3; 3; 5; 2; 5; 5; 2; 0; 1; 0; 0; 3; 6 ] (ints 7);
  Alcotest.(check (list int)) "int 1000"
    [ 46; 79; 362; 641; 776; 896; 872; 2; 873; 868; 422; 664; 241; 725; 293; 827 ]
    (ints 1000);
  Alcotest.(check (list bool)) "bool 0.5"
    [ false; false; true; true; true; true; true; false; false; false; false; true; true; false;
      false; true ]
    (List.init 16 (fun _ -> Rng.bool r 0.5));
  Alcotest.(check (list (float 0.))) "float 10"
    [ 0x1.9ff1a898afe19p+1; 0x1.8ed3607ecb9d2p+2; 0x1.3bc12bfe0aa3p+3; 0x1.8aece3c131079p+1;
      0x1.1d4aeb71ac932p+3; 0x1.27ce3a7414c43p+3; 0x1.1f04e57deff12p+3; 0x1.aea845b71e718p+2 ]
    (List.init 8 (fun _ -> Rng.float r 10.));
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  check_int64s "split stream"
    [ -371861127037631947L; 1952936728445087881L; -2511281395025717595L; -4094463292105855974L;
      4129592827645874139L; -38620975544068777L; -2568015128872364922L; -5765264389234819243L ]
    (int64s child 8);
  check_int64s "split parent"
    [ -4569129087685675272L; 4292726422858613063L; 1832488697174800709L; 3467252261107883461L;
      7020995479949754436L; -266305980683511007L; -9018585715443110101L; 7866638711627835880L ]
    (int64s parent 8);
  let original = Rng.create 9L in
  ignore (int64s original 3);
  let copy = Rng.copy original in
  check_int64s "copy stream"
    [ -3969486743262896032L; 4843255778055325601L; 2114146066760625150L; -6533675609759106868L;
      -303476099996192451L; 4040493311852077417L; -3889293473195387533L; -7568002972331140704L ]
    (int64s copy 8);
  Alcotest.(check int64) "advancing the copy leaves the original unmoved" (-3969486743262896032L)
    (Rng.int64 original)

(* The hot draws allocate nothing once running: no boxed state, no
   closure per rejection loop, no boxed intermediate. As in the event
   queue's tests, the [Gc.minor_words] calls box a float themselves;
   anything per draw would cost >= 1024 words. *)
let test_rng_draws_steady_state_no_alloc () =
  let r = Rng.create 3L in
  let measure name draw =
    draw ();
    let before = Gc.minor_words () in
    for _ = 1 to 1024 do
      draw ()
    done;
    let words = Gc.minor_words () -. before in
    check_bool (name ^ " allocates nothing") true (words < 100.)
  in
  let sum = ref 0 in
  measure "int" (fun () -> sum := !sum + Rng.int r 1000);
  measure "bool" (fun () -> if Rng.bool r 0.3 then incr sum);
  measure "uniform_int" (fun () -> sum := !sum + Rng.uniform_int r (-5) 5);
  check_bool "draws were used" true (!sum <> min_int)

let test_rng_shuffle_permutes () =
  let r = Rng.create 17L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

(* ---- Engine ---- *)

let test_engine_order_and_clock () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:(ms 3.) (fun () -> log := ("c", Engine.now e) :: !log);
  Engine.schedule e ~delay:(ms 1.) (fun () -> log := ("a", Engine.now e) :: !log);
  Engine.schedule e ~delay:(ms 2.) (fun () -> log := ("b", Engine.now e) :: !log);
  Engine.run e;
  let names = List.rev_map fst !log in
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] names;
  check_int "clock at last event" 3000 (Sim_time.to_us (Engine.now e))

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:(ms 1.) (fun () -> incr fired);
  Engine.schedule e ~delay:(ms 10.) (fun () -> incr fired);
  Engine.run ~until:(Sim_time.of_us 5000) e;
  check_int "only first fired" 1 !fired;
  check_int "clock at limit" 5000 (Sim_time.to_us (Engine.now e));
  Engine.run e;
  check_int "second fires later" 2 !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let hits = ref [] in
  Engine.schedule e ~delay:(ms 1.) (fun () ->
      hits := 1 :: !hits;
      Engine.schedule e ~delay:(ms 1.) (fun () -> hits := 2 :: !hits));
  Engine.run e;
  Alcotest.(check (list int)) "nested" [ 2; 1 ] !hits;
  check_int "events executed" 2 (Engine.events_executed e)

(* Lanes must not change the engine's order. A random self-rescheduling
   program runs through [Engine] and through [Ref_engine], a test-local
   engine over a plain [(time, seq)] binary heap (the key-only heap the
   queue had before lanes, without the slot table), and the two executed
   [(time, id)] sequences must be equal. Every event logs itself and
   schedules up to two children, drawn from an [Rng] seeded by the
   program's seed and the event's id: a repeated constant delay (ten
   values, more than the queue has lanes), a random delay, a zero delay,
   or a [schedule_at] on a whole millisecond, where children of different
   parents tie at equal instants. The program runs in [run ~until] chunks,
   then to exhaustion. *)
module Ref_engine = struct
  type t = {
    mutable clock : int;
    mutable times : int array;
    mutable seqs : int array;
    mutable actions : (unit -> unit) array;
    mutable size : int;
    mutable next_seq : int;
  }

  let create () =
    { clock = 0; times = [||]; seqs = [||]; actions = [||]; size = 0; next_seq = 0 }

  let before e i j =
    e.times.(i) < e.times.(j) || (e.times.(i) = e.times.(j) && e.seqs.(i) < e.seqs.(j))

  let swap e i j =
    let t = e.times.(i) and s = e.seqs.(i) and a = e.actions.(i) in
    e.times.(i) <- e.times.(j);
    e.seqs.(i) <- e.seqs.(j);
    e.actions.(i) <- e.actions.(j);
    e.times.(j) <- t;
    e.seqs.(j) <- s;
    e.actions.(j) <- a

  let schedule_at e time f =
    assert (time >= e.clock);
    if e.size = Array.length e.times then begin
      let grow a fill = Array.append a (Array.make (Stdlib.max 16 (Array.length a)) fill) in
      e.times <- grow e.times 0;
      e.seqs <- grow e.seqs 0;
      e.actions <- grow e.actions ignore
    end;
    let i = e.size in
    e.size <- i + 1;
    e.times.(i) <- time;
    e.seqs.(i) <- e.next_seq;
    e.actions.(i) <- f;
    e.next_seq <- e.next_seq + 1;
    let rec up i =
      let parent = (i - 1) / 2 in
      if i > 0 && before e i parent then begin
        swap e i parent;
        up parent
      end
    in
    up i

  let rec down e i =
    let l = (2 * i) + 1 in
    let c = if l + 1 < e.size && before e (l + 1) l then l + 1 else l in
    if l < e.size && before e c i then begin
      swap e c i;
      down e c
    end

  let run ?(until = max_int) e =
    while e.size > 0 && e.times.(0) <= until do
      let f = e.actions.(0) in
      e.clock <- e.times.(0);
      e.size <- e.size - 1;
      swap e 0 e.size;
      e.actions.(e.size) <- ignore;
      down e 0;
      f ()
    done;
    if until < max_int then e.clock <- Stdlib.max e.clock until
end

type scheduler = {
  now : unit -> int;
  after : int -> (unit -> unit) -> unit;
  at : int -> (unit -> unit) -> unit;
  run_until : int option -> unit;
}

let run_program (seed, roots, chunks) sched =
  let constants = [| 70; 400; 100; 10_000; 50_000; 100_000; 0; 140; 1_000; 8_000 |] in
  let log = ref [] and next_id = ref 0 in
  let rec spawn schedule =
    let id = !next_id in
    incr next_id;
    schedule (fun () -> fire id)
  and fire id =
    log := (sched.now (), id) :: !log;
    let r = Rng.create (Int64.of_int ((seed * 1_000_003) + id)) in
    let children = 1 + Bool.to_int (Rng.bool r 0.3) - Bool.to_int (Rng.bool r 0.25) in
    for _ = 1 to if !next_id < 1_500 then children else 0 do
      match Rng.int r 10 with
      | 0 | 1 | 2 | 3 | 4 -> spawn (sched.after (Rng.pick r constants))
      | 5 | 6 -> spawn (sched.after (Rng.int r 20_000))
      | 7 -> spawn (sched.after 0)
      | _ -> spawn (sched.at ((((sched.now () / 1_000) + Rng.int r 5) * 1_000) + 1_000))
    done
  in
  for i = 1 to roots do
    spawn (sched.after (i mod 3 * 70))
  done;
  List.iter (fun chunk -> sched.run_until (Some (sched.now () + chunk))) chunks;
  sched.run_until None;
  List.rev !log

let prop_engine_order_matches_reference_heap =
  QCheck2.Test.make ~name:"engine order equals a plain heap's" ~count:100
    QCheck2.Gen.(
      triple nat (int_range 1 20) (list_size (int_range 0 12) (int_range 0 200_000)))
    (fun program ->
      let e = Engine.create () in
      let engine =
        {
          now = (fun () -> Sim_time.to_us (Engine.now e));
          after = (fun d f -> Engine.schedule e ~delay:(Sim_time.span_us d) f);
          at = (fun t f -> Engine.schedule_at e ~time:(Sim_time.of_us t) f);
          run_until =
            (fun until -> Engine.run ?until:(Option.map Sim_time.of_us until) e);
        }
      in
      let r = Ref_engine.create () in
      let reference =
        {
          now = (fun () -> r.Ref_engine.clock);
          after = (fun d f -> Ref_engine.schedule_at r (r.Ref_engine.clock + d) f);
          at = (fun t f -> Ref_engine.schedule_at r t f);
          run_until = (fun until -> Ref_engine.run ?until r);
        }
      in
      let executed = run_program program engine in
      executed = run_program program reference && List.length executed > 0)

(* ---- Process ---- *)

let test_process_guard_blocks_after_kill () =
  let e = Engine.create () in
  let p = Process.create e ~name:"n" in
  let fired = ref false in
  Process.after p (ms 2.) (fun () -> fired := true);
  Engine.schedule e ~delay:(ms 1.) (fun () -> Process.kill p);
  Engine.run e;
  check_bool "guarded callback suppressed" false !fired

let test_process_restart_new_incarnation () =
  let e = Engine.create () in
  let p = Process.create e ~name:"n" in
  check_int "initial incarnation" 0 (Process.incarnation p);
  Process.kill p;
  check_bool "dead" false (Process.alive p);
  Process.restart p;
  check_bool "alive" true (Process.alive p);
  check_int "two bumps" 2 (Process.incarnation p);
  (* killing twice does not bump twice *)
  Process.kill p;
  Process.kill p;
  check_int "idempotent kill" 3 (Process.incarnation p)

let test_process_periodic_stops_at_kill () =
  let e = Engine.create () in
  let p = Process.create e ~name:"n" in
  let ticks = ref 0 in
  Process.periodic p ~every:(ms 1.) (fun () -> incr ticks);
  Engine.schedule e ~delay:(Sim_time.span_us 3_500) (fun () -> Process.kill p);
  Engine.run e;
  check_int "three ticks then dead" 3 !ticks

let test_process_hooks () =
  let e = Engine.create () in
  let p = Process.create e ~name:"n" in
  let events = ref [] in
  Process.on_kill p (fun () -> events := "kill" :: !events);
  Process.on_restart p (fun () -> events := "restart" :: !events);
  Process.kill p;
  Process.restart p;
  Alcotest.(check (list string)) "hooks ran" [ "restart"; "kill" ] !events

(* ---- Resource ---- *)

let test_resource_single_server_serialises () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"disk" ~servers:1 in
  let finish_times = ref [] in
  let submit () = Resource.request r ~duration:(ms 10.) (fun () ->
      finish_times := Sim_time.to_us (Engine.now e) :: !finish_times)
  in
  submit ();
  submit ();
  submit ();
  Engine.run e;
  Alcotest.(check (list int)) "sequential finishes" [ 30_000; 20_000; 10_000 ] !finish_times;
  check_int "completed" 3 (Resource.jobs_completed r)

let test_resource_two_servers_parallel () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"disk" ~servers:2 in
  let finish_times = ref [] in
  for _ = 1 to 4 do
    Resource.request r ~duration:(ms 10.) (fun () ->
        finish_times := Sim_time.to_us (Engine.now e) :: !finish_times)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "two at a time" [ 20_000; 20_000; 10_000; 10_000 ] !finish_times

let test_resource_wait_accounting () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"disk" ~servers:1 in
  Resource.request r ~duration:(ms 4.) (fun () -> ());
  Resource.request r ~duration:(ms 4.) (fun () -> ());
  Engine.run e;
  check_int "first waits 0, second waits 4ms" 4000 (Sim_time.span_to_us (Resource.total_wait r));
  check_int "busy 8ms" 8000 (Sim_time.span_to_us (Resource.busy_time r))

let test_resource_reset_discards () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"disk" ~servers:1 in
  let fired = ref 0 in
  Resource.request r ~duration:(ms 10.) (fun () -> incr fired);
  Resource.request r ~duration:(ms 10.) (fun () -> incr fired);
  Engine.schedule e ~delay:(ms 1.) (fun () -> Resource.reset r);
  Engine.run e;
  check_int "no callbacks after reset" 0 !fired;
  check_int "idle after reset" 0 (Resource.in_service r)

let prop_resource_conservation =
  QCheck2.Test.make ~name:"resource completes every job exactly once" ~count:100
    QCheck2.Gen.(pair (int_range 1 4) (list_size (int_range 1 30) (int_range 1 50)))
    (fun (servers, durations) ->
      let e = Engine.create () in
      let r = Resource.create e ~name:"r" ~servers in
      let done_ = ref 0 in
      List.iter
        (fun d -> Resource.request r ~duration:(Sim_time.span_us d) (fun () -> incr done_))
        durations;
      Engine.run e;
      !done_ = List.length durations && Resource.jobs_completed r = List.length durations)

(* ---- Stats ---- *)

let test_stats_basic () =
  let s = Stats.series "lat" in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check (float 1e-9)) "mean" 3. (Stats.mean s);
  Alcotest.(check (float 1e-9)) "variance" 2.5 (Stats.variance s);
  check_int "count" 5 (Stats.count s)

let test_stats_percentile_interpolation () =
  let s = Stats.series "p" in
  List.iter (Stats.add s) [ 10.; 20.; 30.; 40. ];
  Alcotest.(check (float 1e-9)) "p0" 10. (Stats.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 40. (Stats.percentile s 100.);
  Alcotest.(check (float 1e-9)) "p50 interpolated" 25. (Stats.percentile s 50.)

let test_stats_empty () =
  let s = Stats.series "e" in
  check_bool "mean nan" true (Float.is_nan (Stats.mean s));
  check_bool "percentile nan" true (Float.is_nan (Stats.percentile s 50.))

let test_stats_merge () =
  let a = Stats.series "a" and b = Stats.series "b" in
  Stats.add a 1.;
  Stats.add b 3.;
  let m = Stats.merge "m" [ a; b ] in
  Alcotest.(check (float 1e-9)) "merged mean" 2. (Stats.mean m);
  check_int "merged count" 2 (Stats.count m)

let prop_stats_mean_matches_naive =
  QCheck2.Test.make ~name:"online mean matches naive mean" ~count:200
    QCheck2.Gen.(list_size (int_range 1 100) (float_bound_inclusive 1000.))
    (fun xs ->
      let s = Stats.series "q" in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6 *. (1. +. Float.abs naive))

(* ---- Trace ---- *)

let test_trace_record_and_query () =
  let e = Engine.create () in
  let tr = Trace.create e in
  Engine.schedule e ~delay:(ms 1.) (fun () ->
      Trace.record tr ~source:"S1" ~kind:"commit" [ ("tx", "7") ]);
  Engine.run e;
  check_int "one entry" 1 (Trace.length tr);
  match Trace.find_all tr ~kind:"commit" with
  | [ entry ] ->
    Alcotest.(check (option string)) "attr" (Some "7") (Trace.attr entry "tx");
    check_int "stamped" 1000 (Sim_time.to_us entry.Trace.time)
  | _ -> Alcotest.fail "expected exactly one commit entry"

let test_trace_disabled () =
  let e = Engine.create () in
  let tr = Trace.create ~enabled:false e in
  Trace.record tr ~source:"S1" ~kind:"x" [];
  check_int "nothing recorded" 0 (Trace.length tr)

let test_trace_render_and_diff () =
  let make entries =
    let e = Engine.create () in
    let tr = Trace.create e in
    List.iter (fun (source, kind, attrs) -> Trace.record tr ~source ~kind attrs) entries;
    tr
  in
  let base = [ ("S0", "submit", [ ("tx", "1") ]); ("S1", "deliver", [ ("tx", "1") ]) ] in
  let a = make base and b = make base in
  check_bool "equal traces" true (Trace.equal a b);
  Alcotest.(check string) "render identical" (Trace.render a) (Trace.render b);
  Alcotest.(check (option (triple int (option string) (option string))))
    "no divergence" None
    (Option.map
       (fun (i, x, y) -> (i, Option.map Trace.render_entry x, Option.map Trace.render_entry y))
       (Trace.first_divergence a b));
  let c = make (base @ [ ("S0", "crash", []) ]) in
  check_bool "longer trace differs" false (Trace.equal a c);
  (match Trace.first_divergence a c with
  | Some (2, None, Some extra) -> Alcotest.(check string) "extra entry" "crash" extra.Trace.kind
  | _ -> Alcotest.fail "expected divergence at index 2 with an extra entry");
  let d = make [ ("S0", "submit", [ ("tx", "1") ]); ("S1", "deliver", [ ("tx", "2") ]) ] in
  match Trace.first_divergence a d with
  | Some (1, Some x, Some y) ->
    Alcotest.(check (option string)) "left attr" (Some "1") (Trace.attr x "tx");
    Alcotest.(check (option string)) "right attr" (Some "2") (Trace.attr y "tx")
  | _ -> Alcotest.fail "expected divergence at index 1"

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "invalid arguments" `Quick test_time_invalid;
        ] );
      ( "event_queue",
        Alcotest.test_case "ordering" `Quick test_queue_ordering
        :: Alcotest.test_case "fifo at equal times" `Quick test_queue_fifo_at_equal_times
        :: Alcotest.test_case "pop releases payload" `Quick test_queue_pop_releases_payload
        :: Alcotest.test_case "clear releases payloads" `Quick test_queue_clear_releases_payloads
        :: Alcotest.test_case "fast-path accessors" `Quick test_queue_fast_path_accessors
        :: Alcotest.test_case "steady-state add allocates nothing" `Quick
             test_queue_add_steady_state_no_alloc
        :: Alcotest.test_case "steady-state pop_value allocates nothing" `Quick
             test_queue_pop_value_steady_state_no_alloc
        :: qsuite [ prop_queue_pops_sorted; prop_queue_matches_naive_model ] );
      ( "rng",
        Alcotest.test_case "determinism" `Quick test_rng_determinism
        :: Alcotest.test_case "copy and split" `Quick test_rng_copy_and_split
        :: Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean
        :: Alcotest.test_case "bernoulli ratio" `Quick test_rng_bool_probability
        :: Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes
        :: Alcotest.test_case "int rejects only the last block" `Quick
             test_rng_int_rejects_only_the_last_block
        :: Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned
        :: Alcotest.test_case "steady-state draws allocate nothing" `Quick
             test_rng_draws_steady_state_no_alloc
        :: qsuite [ prop_rng_int_bounds; prop_rng_uniform_int_bounds ] );
      ( "engine",
        Alcotest.test_case "order and clock" `Quick test_engine_order_and_clock
        :: Alcotest.test_case "run until" `Quick test_engine_until
        :: Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule
        :: qsuite [ prop_engine_order_matches_reference_heap ] );
      ( "process",
        [
          Alcotest.test_case "guard blocks after kill" `Quick test_process_guard_blocks_after_kill;
          Alcotest.test_case "incarnations" `Quick test_process_restart_new_incarnation;
          Alcotest.test_case "periodic stops at kill" `Quick test_process_periodic_stops_at_kill;
          Alcotest.test_case "kill/restart hooks" `Quick test_process_hooks;
        ] );
      ( "resource",
        Alcotest.test_case "single server serialises" `Quick test_resource_single_server_serialises
        :: Alcotest.test_case "two servers in parallel" `Quick test_resource_two_servers_parallel
        :: Alcotest.test_case "wait accounting" `Quick test_resource_wait_accounting
        :: Alcotest.test_case "reset discards jobs" `Quick test_resource_reset_discards
        :: qsuite [ prop_resource_conservation ] );
      ( "stats",
        Alcotest.test_case "basic moments" `Quick test_stats_basic
        :: Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interpolation
        :: Alcotest.test_case "empty series" `Quick test_stats_empty
        :: Alcotest.test_case "merge" `Quick test_stats_merge
        :: qsuite [ prop_stats_mean_matches_naive ] );
      ( "trace",
        [
          Alcotest.test_case "record and query" `Quick test_trace_record_and_query;
          Alcotest.test_case "disabled trace drops" `Quick test_trace_disabled;
          Alcotest.test_case "render and diff" `Quick test_trace_render_and_diff;
        ] );
    ]
