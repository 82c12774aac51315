type t = { origin : int; incarnation : int; seq : int }

let equal a b = a.origin = b.origin && a.incarnation = b.incarnation && a.seq = b.seq

(* An integer mix instead of the generic structural hash. The multiplier is
   odd, so dense sequence numbers land in distinct buckets of any
   power-of-two table. *)
let hash u = (((u.seq * 65599) + u.incarnation) * 65599 + u.origin) land max_int

let compare a b =
  match Int.compare a.origin b.origin with
  | 0 -> (
    match Int.compare a.incarnation b.incarnation with
    | 0 -> Int.compare a.seq b.seq
    | c -> c)
  | c -> c

let pp ppf u = Format.fprintf ppf "%d.%d.%d" u.origin u.incarnation u.seq
