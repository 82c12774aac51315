(* Contiguous key-range sharding.

   The key space [0, items) is cut into [shards] contiguous ranges, as
   even as possible: the first [rem = items mod shards] ranges hold
   [base + 1] keys and end at [wide], the rest hold [base]. Range
   boundaries and routing are closed-form (no table walk) from those
   constants, computed once here, so a lookup costs O(1) and the map is a
   pure function of (items, shards). *)

type t = { items : int; shards : int; base : int; rem : int; wide : int }

let create ~items ~shards =
  if items <= 0 then invalid_arg "Shard_map.create: need at least one item";
  if shards <= 0 then invalid_arg "Shard_map.create: need at least one shard";
  if shards > items then invalid_arg "Shard_map.create: more shards than items";
  let base = items / shards and rem = items mod shards in
  { items; shards; base; rem; wide = rem * (base + 1) }

let items t = t.items
let shards t = t.shards

let shard_of_key t k =
  if k < 0 || k >= t.items then invalid_arg "Shard_map.shard_of_key: key out of range";
  if k < t.wide then k / (t.base + 1) else t.rem + ((k - t.wide) / t.base)

let range t s =
  if s < 0 || s >= t.shards then invalid_arg "Shard_map.range: shard out of range";
  let lo s = (s * t.base) + Int.min s t.rem in
  (lo s, lo (s + 1))

(* Insert [s] into an ascending list without duplicates; a shard already
   present allocates nothing. *)
let rec insert (s : int) = function
  | [] -> [ s ]
  | x :: rest as l -> if s < x then s :: l else if Int.equal s x then l else x :: insert s rest

(* One pass over the ops: every op's item is in the read set or the write
   set, so this is the shards of their union without building either. *)
let shards_of_tx t tx =
  List.fold_left
    (fun acc op -> insert (shard_of_key t (Db.Op.item op)) acc)
    [] tx.Db.Transaction.ops

let single_shard t tx = match shards_of_tx t tx with [ s ] -> Some s | _ -> None
