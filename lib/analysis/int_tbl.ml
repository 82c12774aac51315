module T = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* A shift-xor fold of the key. Dense ids and slots still land in
     neighbouring buckets, so the recent ones that per-event lookups touch
     share cache lines, and strided keys fill every bucket: a shard's ids
     [i + k * shards] step by the shard count, its sub-transaction ids by
     twice that. For 8 000 keys the key itself as the hash cost 8.3 probes
     per hit at stride 8 and 16.1 at stride 16; the fold costs 1.5 and 2.5
     (1.5 for dense keys either way). A multiplicative hash ran
     fastdisk-batched about 5% slower, and the three-term fold
     [x ^ x >> 4 ^ x >> 8], though even at every stride, ran
     shard-readmostly 4-9% and fastdisk-batched 3% slower
     (docs/PERFORMANCE.md). Enumeration is always sorted, so no output
     depends on the hash. *)
  let hash x = (x lxor (x lsr 3)) land max_int
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
let stats = T.stats
let sorted_keys t = D.sorted_keys ~cmp:Int.compare t

let iter_sorted f t =
  List.iter (fun k -> match T.find_opt t k with Some v -> f k v | None -> ()) (sorted_keys t)

let fold_sorted f t init =
  List.fold_left
    (fun acc k -> match T.find_opt t k with Some v -> f k v acc | None -> acc)
    init (sorted_keys t)
