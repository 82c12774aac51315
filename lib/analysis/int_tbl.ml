module T = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* The key itself: dense ids and slots fill neighbouring buckets, so the
     recent ones that per-event lookups touch share cache lines. A
     multiplicative hash spreads strided ids (a shard's [i + k * shards])
     better but ran fastdisk-batched about 5% slower. *)
  let hash x = x land max_int
end)

module D = Det_tbl.Keyed (T)

type 'a t = 'a T.t

let create = T.create
let reset = T.reset
let length = T.length
let replace = T.replace
let remove = T.remove
let find_opt = T.find_opt
let mem = T.mem
let sorted_keys t = D.sorted_keys ~cmp:Int.compare t

let iter_sorted f t =
  List.iter (fun k -> match T.find_opt t k with Some v -> f k v | None -> ()) (sorted_keys t)

let fold_sorted f t init =
  List.fold_left
    (fun acc k -> match T.find_opt t k with Some v -> f k v acc | None -> acc)
    init (sorted_keys t)
