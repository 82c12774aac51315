module Int_tbl = Analysis.Int_tbl

type model = Probabilistic of float | Lru of int

(* The LRU cache pairs a hash table with a recency counter per page; on
   eviction we look for the minimum. Ticks are strictly increasing, so the
   victim is unique. The sorted walk costs O(n log n) per eviction; no
   experiment uses the LRU model, and its tests keep a few pages, so the
   representation stays simple. *)
type lru = { capacity : int; table : int Int_tbl.t; mutable tick : int }

type state = P of float | L of lru

type t = { rng : Sim.Rng.t; state : state; mutable hits : int; mutable misses : int }

let create rng model =
  let state =
    match model with
    | Probabilistic ratio ->
      if ratio < 0. || ratio > 1. then invalid_arg "Buffer_pool.create: ratio out of range";
      P ratio
    | Lru capacity ->
      if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
      L { capacity; table = Int_tbl.create (2 * capacity); tick = 0 }
  in
  { rng; state; hits = 0; misses = 0 }

let touch lru page =
  lru.tick <- lru.tick + 1;
  Int_tbl.replace lru.table page lru.tick

let evict_if_full lru =
  if Int_tbl.length lru.table > lru.capacity then begin
    let victim, _ =
      Int_tbl.fold_sorted
        (fun page tick (victim, oldest) ->
          if tick < oldest then (page, tick) else (victim, oldest))
        lru.table (-1, max_int)
    in
    Int_tbl.remove lru.table victim
  end

let install lru page =
  touch lru page;
  evict_if_full lru

let read pool ~page =
  let hit =
    match pool.state with
    | P ratio -> Sim.Rng.bool pool.rng ratio
    | L lru ->
      if Int_tbl.mem lru.table page then begin
        touch lru page;
        true
      end
      else begin
        install lru page;
        false
      end
  in
  if hit then pool.hits <- pool.hits + 1 else pool.misses <- pool.misses + 1;
  hit

let write pool ~page =
  match pool.state with
  | P _ -> ()
  | L lru -> install lru page

let invalidate pool =
  match pool.state with
  | P _ -> ()
  | L lru -> Int_tbl.reset lru.table

let hits pool = pool.hits
let misses pool = pool.misses

let hit_ratio pool =
  let total = pool.hits + pool.misses in
  if total = 0 then nan else float_of_int pool.hits /. float_of_int total
