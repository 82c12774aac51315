(* A binary min-heap that sifts keys only, next to up to [n_lanes] FIFO
   ring buffers ("lanes") for events scheduled with a recurring delay.

   The heap's priority keys live in two plain [int array]s indexed by heap
   position (times in microseconds, insertion sequence numbers for FIFO
   ties), next to a third [int array] mapping each heap position to what it
   stands for. A *single* is an event held by the heap alone: its payload
   sits in a slot table ([values], an [Obj.t array]) and never moves. [add]
   takes a slot off the free-slot stack and writes the payload there once,
   [pop_value] reads it and writes the dummy back once. Sifting therefore
   stores only immediates into [int array]s, which needs no write barrier;
   moving payloads instead would call [caml_modify] at every level of every
   sift.

   A lane holds the events of one delay in a ring of times, sequence
   numbers and payloads. Events scheduled with the same delay from a clock
   that never goes back arrive in [(time, seq)] order, so appending keeps
   the ring sorted and costs O(1). The heap holds one entry per non-empty
   lane, keyed by the lane's head and pointing at the lane (position ->
   [-1 - lane]); when the head pops, the next entry's key replaces it with
   one sift-down. The pop order is the merge of the heap and the sorted
   lanes, so it is the [(time, seq)] order whatever the lane policy:
   - an append whose time lies before the lane's tail goes to the heap
     instead, so a lane is always sorted;
   - a delay gets a lane on its second sighting only (a direct-mapped
     filter of recent delays), so one-off random delays stay singles;
   - only an empty lane changes hands, the first one in the lane table.

   Sifts move a hole instead of swapping: the entry being placed is held in
   locals while each displaced entry moves one level, and it is written
   once where it lands. The helpers are toplevel and annotated [int array]
   so every comparison is an unboxed integer compare (left to inference
   they would generalise to the polymorphic [compare]).

   The slot table and the rings are filled with an immediate dummy (so
   they are ordinary arrays even when ['a] is [float]), and a popped cell
   is reset to that dummy, so a popped value — and any closure it
   captures — becomes unreachable immediately. *)

let n_lanes = 8
let filter_bits = 6 (* a 64-entry sighting filter *)
let no_delay = min_int (* owner of an unowned lane, content of an unused filter entry *)

type lane = {
  mutable head : int; (* ring index of the earliest entry *)
  mutable len : int;
  mutable last : int; (* time of the latest entry while [len > 0] *)
  mutable ring_times : int array; (* length 0 or a power of two *)
  mutable ring_seqs : int array;
  mutable ring_values : Obj.t array; (* [dummy] outside the live entries *)
}

type 'a t = {
  mutable times : int array; (* heap position -> Sim_time.to_us *)
  mutable seqs : int array; (* heap position -> insertion order *)
  mutable slots : int array; (* heap position -> index into [values], or [-1 - lane] *)
  mutable values : Obj.t array; (* slot -> payload, or [dummy] when free *)
  mutable free : int array; (* stack of free slots, top at [n_free - 1] *)
  mutable n_free : int;
  mutable size : int; (* heap entries: singles and lane heads *)
  mutable in_lanes : int; (* events queued in lanes *)
  mutable next_seq : int;
  (* Lane state, [[||]] until the first delay is sighted. *)
  mutable lane_delays : int array; (* lane -> owning delay, or [no_delay] *)
  mutable lanes : lane array;
  mutable sighted : int array; (* hash of a delay -> the last delay seen there *)
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
    in_lanes = 0;
    next_seq = 0;
    lane_delays = [||];
    lanes = [||];
    sighted = [||];
  }

(* Every live slot holds a single. *)
let length q = Array.length q.values - q.n_free + q.in_lanes

(* A non-empty lane always has its head in the heap. *)
let is_empty q = q.size = 0

(* Called only when every slot is live ([n_free = 0]): the new slots all go
   onto the free stack, lowest index on top. The heap holds one entry per
   live slot plus at most one per lane, so its arrays grow with the slot
   table, [n_lanes] positions longer: every heap position a push writes is
   in bounds without a check of its own. *)
let grow q =
  let capacity = Array.length q.values in
  let capacity' = Stdlib.max 16 (2 * capacity) in
  let extend a cells fill =
    let a' = Array.make cells fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  q.times <- extend q.times (capacity' + n_lanes) 0;
  q.seqs <- extend q.seqs (capacity' + n_lanes) 0;
  q.slots <- extend q.slots (capacity' + n_lanes) 0;
  q.values <- extend q.values capacity' dummy;
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

let[@inline] fresh_seq q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  seq

let[@inline] push q t s slot =
  let i = q.size in
  q.size <- i + 1;
  sift_up q.times q.seqs q.slots i t s slot

let[@inline] add_single q t value =
  if q.n_free = 0 then grow q;
  let n_free = q.n_free - 1 in
  let slot = q.free.(n_free) in
  q.n_free <- n_free;
  q.values.(slot) <- Obj.repr value;
  push q t (fresh_seq q) slot

let add q ~time value = add_single q (Sim_time.to_us time) value

(* ---- Lanes ---- *)

let new_lane () =
  { head = 0; len = 0; last = 0; ring_times = [||]; ring_seqs = [||]; ring_values = [||] }

(* Fills the cells of the lane table no delay has claimed yet: it is empty,
   so [first_empty] can pick it, and [admit] puts a fresh lane in its place
   before anything is written. *)
let unclaimed = new_lane ()

(* Called only when the ring is full: its entries are unrolled to start at
   index 0 of rings twice the size. *)
let grow_ring l =
  let cells = Array.length l.ring_times in
  let cells' = Stdlib.max 16 (2 * cells) in
  let unroll a fill =
    let a' = Array.make cells' fill in
    Array.blit a l.head a' 0 (cells - l.head);
    Array.blit a 0 a' (cells - l.head) l.head;
    a'
  in
  l.ring_times <- unroll l.ring_times 0;
  l.ring_seqs <- unroll l.ring_seqs 0;
  l.ring_values <- unroll l.ring_values dummy;
  l.head <- 0

(* Append at the tail of lane [l]; the caller has checked the order. *)
let write q l t s value =
  if l.len = Array.length l.ring_times then grow_ring l;
  let i = (l.head + l.len) land (Array.length l.ring_times - 1) in
  l.ring_times.(i) <- t;
  l.ring_seqs.(i) <- s;
  l.ring_values.(i) <- Obj.repr value;
  l.len <- l.len + 1;
  l.last <- t;
  q.in_lanes <- q.in_lanes + 1

(* Lane [k] is empty: the event becomes its only entry, and the lane
   enters the heap keyed by it. Only an empty lane starts, so a lane never
   has two heap entries, which is what keeps [push] in bounds. *)
let start q k l t value =
  let s = fresh_seq q in
  write q l t s value;
  push q t s (-1 - k)

let append q k t value =
  let l = q.lanes.(k) in
  if l.len = 0 then start q k l t value
  else if t < l.last then add_single q t value
  else write q l t (fresh_seq q) value

let rec find_lane (delays : int array) (d : int) k =
  if k = Array.length delays then -1
  else if Array.unsafe_get delays k = d then k
  else find_lane delays d (k + 1)

(* The first empty lane from [k] on, or -1 when every lane is busy. *)
let rec first_empty (lanes : lane array) k =
  if k = Array.length lanes then -1
  else if lanes.(k).len = 0 then k
  else first_empty lanes (k + 1)

(* A Fibonacci hash: the top [filter_bits] bits of the 63-bit product. *)
let sighting_index d = (d * 0x278DDE6E5FD29F05) lsr (63 - filter_bits)

(* [d] owns no lane. On its second sighting in a row at its filter entry
   it takes over the first empty lane; the result is that lane, or -1. *)
let admit q d =
  if Array.length q.sighted = 0 then begin
    (* Lane heads are pushed unchecked, so the heap arrays must exist. *)
    if Array.length q.values = 0 then grow q;
    q.sighted <- Array.make (1 lsl filter_bits) no_delay;
    q.lane_delays <- Array.make n_lanes no_delay;
    q.lanes <- Array.make n_lanes unclaimed
  end;
  let h = sighting_index d in
  if q.sighted.(h) <> d then begin
    q.sighted.(h) <- d;
    -1
  end
  else
    let k = first_empty q.lanes 0 in
    if k >= 0 then begin
      q.lane_delays.(k) <- d;
      if q.lanes.(k) == unclaimed then q.lanes.(k) <- new_lane ()
    end;
    k

let add_delayed q ~time ~delay value =
  let t = Sim_time.to_us time and d = Sim_time.span_to_us delay in
  let k = find_lane q.lane_delays d 0 in
  if k >= 0 then append q k t value
  else
    let k = admit q d in
    if k >= 0 then start q k q.lanes.(k) t value else add_single q t value

let next_time_us q = if q.size = 0 then max_int else Array.unsafe_get q.times 0

let[@inline] remove_root q =
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then
    sift_down q.times q.seqs q.slots last 0 q.times.(last) q.seqs.(last) q.slots.(last)

(* Remove the earliest event and reset its cell to the dummy, so the popped
   value is no longer reachable from the queue. A single's slot goes back
   on the free stack and the last heap entry sifts down from the root's
   hole; a lane's next entry, if any, takes the root's key instead. *)
let pop_value q =
  if q.size = 0 then invalid_arg "Event_queue.pop_value: empty queue";
  let slot = q.slots.(0) in
  if slot >= 0 then begin
    let v = q.values.(slot) in
    q.values.(slot) <- dummy;
    q.free.(q.n_free) <- slot;
    q.n_free <- q.n_free + 1;
    remove_root q;
    Obj.obj v
  end
  else begin
    let l = q.lanes.(-1 - slot) in
    let h = l.head in
    let v = l.ring_values.(h) in
    l.ring_values.(h) <- dummy;
    let h = (h + 1) land (Array.length l.ring_times - 1) in
    l.head <- h;
    l.len <- l.len - 1;
    q.in_lanes <- q.in_lanes - 1;
    if l.len = 0 then remove_root q
    else sift_down q.times q.seqs q.slots q.size 0 l.ring_times.(h) l.ring_seqs.(h) slot;
    Obj.obj v
  end

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
  q.size <- 0;
  q.in_lanes <- 0;
  q.lane_delays <- [||];
  q.lanes <- [||];
  q.sighted <- [||]

let heap_ok q =
  let capacity = Array.length q.values in
  (* The heap arrays are [n_lanes] longer than the slot table, which is
     what keeps the unchecked pushes in bounds. *)
  let heap_cells = if capacity = 0 then 0 else capacity + n_lanes in
  let ok =
    ref
      (Array.length q.times = heap_cells
      && Array.length q.seqs = heap_cells
      && Array.length q.slots = heap_cells
      && q.size <= heap_cells)
  in
  for i = 1 to q.size - 1 do
    if before q.times q.seqs i q.times.((i - 1) / 2) q.seqs.((i - 1) / 2) then ok := false
  done;
  (* Every slot is referenced by exactly one heap position or sits on the
     free stack exactly once, and a free slot holds the dummy — otherwise a
     popped value leaks. Every lane is referenced by at most one heap
     position. *)
  let seen = Array.make capacity false in
  let claim slot =
    if slot < 0 || slot >= capacity || seen.(slot) then ok := false else seen.(slot) <- true
  in
  let lane_pos = Array.make (Array.length q.lanes) (-1) in
  let singles = ref 0 in
  for i = 0 to q.size - 1 do
    let slot = q.slots.(i) in
    if slot >= 0 then begin
      incr singles;
      claim slot
    end
    else begin
      let k = -1 - slot in
      if k >= Array.length q.lanes || lane_pos.(k) >= 0 then ok := false else lane_pos.(k) <- i
    end
  done;
  if !singles + q.n_free <> capacity then ok := false;
  for k = 0 to q.n_free - 1 do
    let slot = q.free.(k) in
    claim slot;
    if !ok && q.values.(slot) != dummy then ok := false
  done;
  (* A non-empty lane is sorted, its latest time is cached in [last], and
     its one heap entry carries its head's key; an empty lane has no heap
     entry. Every ring cell outside the live entries holds the dummy, no
     delay owns two lanes, and a cell no delay has claimed still holds the
     untouched [unclaimed]. *)
  let queued = ref !singles in
  Array.iteri
    (fun k l ->
      let cells = Array.length l.ring_times in
      let at j = (l.head + j) land (cells - 1) in
      queued := !queued + l.len;
      if l.len > cells || cells land (cells - 1) <> 0 then ok := false
      else begin
        if l.len = 0 then (if lane_pos.(k) >= 0 then ok := false)
        else begin
          let i = lane_pos.(k) and h = at 0 in
          if i < 0 || q.times.(i) <> l.ring_times.(h) || q.seqs.(i) <> l.ring_seqs.(h) then
            ok := false;
          for j = 1 to l.len - 1 do
            let p = at (j - 1) and c = at j in
            let tp = l.ring_times.(p) and tc = l.ring_times.(c) in
            if tc < tp || (tc = tp && l.ring_seqs.(c) <= l.ring_seqs.(p)) then ok := false
          done;
          if l.ring_times.(at (l.len - 1)) <> l.last then ok := false
        end;
        for j = l.len to cells - 1 do
          if l.ring_values.(at j) != dummy then ok := false
        done
      end;
      let d = q.lane_delays.(k) in
      if d <> no_delay && find_lane q.lane_delays d 0 <> k then ok := false;
      if l == unclaimed && d <> no_delay then ok := false)
    q.lanes;
  if unclaimed.len <> 0 || Array.length unclaimed.ring_times <> 0 then ok := false;
  !ok && !queued = length q
