type t = { origin : int; incarnation : int; seq : int }

let equal a b = a.origin = b.origin && a.incarnation = b.incarnation && a.seq = b.seq
let hash = Hashtbl.hash

let compare a b =
  match Int.compare a.origin b.origin with
  | 0 -> (
    match Int.compare a.incarnation b.incarnation with
    | 0 -> Int.compare a.seq b.seq
    | c -> c)
  | c -> c

let pp ppf u = Format.fprintf ppf "%d.%d.%d" u.origin u.incarnation u.seq
