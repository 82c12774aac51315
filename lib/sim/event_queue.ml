(* A binary min-heap that sifts keys only. The priority keys live in two
   plain [int array]s indexed by heap position (times in microseconds,
   insertion sequence numbers for FIFO ties), next to a third [int array]
   mapping each heap position to its payload's slot. Payloads sit in a slot
   table ([values], an [Obj.t array]) and never move: [add] takes a slot off
   the free-slot stack and writes the payload there once, [pop_value] reads
   it and writes the dummy back once. Sifting therefore stores only
   immediates into [int array]s, which needs no write barrier; moving
   payloads instead would call [caml_modify] at every level of every
   sift.

   Sifts move a hole instead of swapping: the entry being placed is held in
   locals while each displaced entry moves one level, and it is written
   once where it lands. The helpers are toplevel and annotated [int array]
   so every comparison is an unboxed integer compare (left to inference
   they would generalise to the polymorphic [compare]).

   [(time, seq)] is a strict total order (sequence numbers are unique), so
   the pop order is fixed by the keys alone, whatever the array layout.

   The slot table is created with an immediate dummy (so it is an ordinary
   array even when ['a] is [float]), and a popped slot is reset to that
   dummy, so a popped value — and any closure it captures — becomes
   unreachable immediately. *)

type 'a t = {
  mutable times : int array; (* heap position -> Sim_time.to_us *)
  mutable seqs : int array; (* heap position -> insertion order *)
  mutable slots : int array; (* heap position -> index into [values] *)
  mutable values : Obj.t array; (* slot -> payload, or [dummy] when free *)
  mutable free : int array; (* stack of free slots, top at [n_free - 1] *)
  mutable n_free : int;
  mutable size : int;
  mutable next_seq : int;
}

let dummy : Obj.t = Obj.repr ()

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    values = [||];
    free = [||];
    n_free = 0;
    size = 0;
    next_seq = 0;
  }

let length q = q.size
let is_empty q = q.size = 0

(* Called only when every slot is live ([n_free = 0]): the new slots all go
   onto the free stack, lowest index on top. *)
let grow q =
  let capacity = Array.length q.times in
  let capacity' = Stdlib.max 16 (2 * capacity) in
  let extend a fill =
    let a' = Array.make capacity' fill in
    Array.blit a 0 a' 0 capacity;
    a'
  in
  q.times <- extend q.times 0;
  q.seqs <- extend q.seqs 0;
  q.slots <- extend q.slots 0;
  q.values <- extend q.values dummy;
  q.free <- Array.init capacity' (fun k -> capacity' - 1 - k);
  q.n_free <- capacity' - capacity

(* Does the entry at heap position [i] pop before the key [(t, s)]? *)
let[@inline] before (times : int array) (seqs : int array) i (t : int) (s : int) =
  let ti = Array.unsafe_get times i in
  ti < t || (ti = t && Array.unsafe_get seqs i < s)

let[@inline] place (times : int array) (seqs : int array) (slots : int array) i t s slot =
  Array.unsafe_set times i t;
  Array.unsafe_set seqs i s;
  Array.unsafe_set slots i slot

(* Move the entry at heap position [src] to heap position [dst]. *)
let[@inline] move (times : int array) (seqs : int array) (slots : int array) ~src ~dst =
  place times seqs slots dst (Array.unsafe_get times src) (Array.unsafe_get seqs src)
    (Array.unsafe_get slots src)

(* Fill the hole at heap position [i] with the entry [(t, s, slot)],
   moving ancestors that pop later down one level each. *)
let rec sift_up (times : int array) (seqs : int array) (slots : int array) i t s slot =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before times seqs parent t s then place times seqs slots i t s slot
    else begin
      move times seqs slots ~src:parent ~dst:i;
      sift_up times seqs slots parent t s slot
    end
  end
  else place times seqs slots i t s slot

(* Fill the hole at heap position [i] of a heap of [n] entries with the
   entry [(t, s, slot)], moving children that pop earlier up one level. *)
let rec sift_down (times : int array) (seqs : int array) (slots : int array) n i t s slot =
  let left = (2 * i) + 1 in
  if left >= n then place times seqs slots i t s slot
  else begin
    let right = left + 1 in
    let child =
      if
        right < n
        && before times seqs right (Array.unsafe_get times left) (Array.unsafe_get seqs left)
      then right
      else left
    in
    if before times seqs child t s then begin
      move times seqs slots ~src:child ~dst:i;
      sift_down times seqs slots n child t s slot
    end
    else place times seqs slots i t s slot
  end

let add q ~time value =
  if q.size = Array.length q.times then grow q;
  let n_free = q.n_free - 1 in
  let slot = q.free.(n_free) in
  q.n_free <- n_free;
  q.values.(slot) <- Obj.repr value;
  let i = q.size in
  q.size <- i + 1;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  sift_up q.times q.seqs q.slots i (Sim_time.to_us time) seq slot

let next_time_us q = if q.size = 0 then max_int else Array.unsafe_get q.times 0
let peek_time q = if q.size = 0 then None else Some (Sim_time.of_us q.times.(0))

(* Remove the root: hand its slot back, reset to the dummy so the popped
   value is no longer reachable from the queue, then sift the last entry
   down from the root's hole. *)
let pop_value q =
  if q.size = 0 then invalid_arg "Event_queue.pop_value: empty queue";
  let slot = q.slots.(0) in
  let v = q.values.(slot) in
  q.values.(slot) <- dummy;
  q.free.(q.n_free) <- slot;
  q.n_free <- q.n_free + 1;
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then
    sift_down q.times q.seqs q.slots last 0 q.times.(last) q.seqs.(last) q.slots.(last);
  Obj.obj v

let pop q =
  if q.size = 0 then None
  else begin
    let t = q.times.(0) in
    let v = pop_value q in
    Some (Sim_time.of_us t, v)
  end

let clear q =
  q.times <- [||];
  q.seqs <- [||];
  q.slots <- [||];
  q.values <- [||];
  q.free <- [||];
  q.n_free <- 0;
  q.size <- 0

let heap_ok q =
  let capacity = Array.length q.values in
  let ok = ref (q.size + q.n_free = capacity) in
  for i = 1 to q.size - 1 do
    if before q.times q.seqs i q.times.((i - 1) / 2) q.seqs.((i - 1) / 2) then ok := false
  done;
  (* Every slot is referenced by exactly one heap position or sits on the
     free stack exactly once, and a free slot holds the dummy — otherwise a
     popped value leaks. *)
  let seen = Array.make capacity false in
  let claim slot =
    if slot < 0 || slot >= capacity || seen.(slot) then ok := false else seen.(slot) <- true
  in
  for i = 0 to q.size - 1 do
    claim q.slots.(i)
  done;
  for k = 0 to q.n_free - 1 do
    let slot = q.free.(k) in
    claim slot;
    if !ok && q.values.(slot) != dummy then ok := false
  done;
  !ok
