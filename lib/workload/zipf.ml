(* Zipf(s) key sampler over [0, items).

   P(k) is proportional to 1 / (k+1)^s: key 0 is the hottest, and the
   skew grows with s (s = 0 is uniform). Sampling inverts the cumulative
   distribution over a precomputed table — arrays only, no hash tables, so
   the stream is a pure function of the RNG stream and the parameters (no
   insertion-order leakage), and two samplers built with the same
   parameters draw identical streams from identical RNGs.

   The inversion starts from a guide table: [guide.(j)] is the first key
   whose cumulative mass exceeds [j / items], so a draw [u] starts at
   [guide.(floor (u * items))] and walks to the smallest [k] with
   [cum.(k) > u] in a step or two, where a binary search takes about 11
   at 1 250 keys. It walks down as well as up, because the float product
   [u * items] can round across an edge; either way it stops on exactly
   the key a binary search returns, since [cum] never decreases. *)

type t = { items : int; s : float; cum : float array; guide : int array }

let create ~items ~s =
  if items <= 0 then invalid_arg "Zipf.create: need at least one item";
  if s < 0. then invalid_arg "Zipf.create: negative exponent";
  let cum = Array.make items 0. in
  let total = ref 0. in
  for k = 0 to items - 1 do
    total := !total +. (1. /. Float.pow (float_of_int (k + 1)) s);
    cum.(k) <- !total
  done;
  (* Normalise so the last entry is exactly 1.0: every draw is in
     [0, 1), so the walk always lands. *)
  let norm = !total in
  for k = 0 to items - 1 do
    cum.(k) <- cum.(k) /. norm
  done;
  cum.(items - 1) <- 1.0;
  let guide = Array.make items 0 in
  let k = ref 0 in
  for j = 0 to items - 1 do
    let edge = float_of_int j /. float_of_int items in
    while cum.(!k) <= edge do
      incr k
    done;
    guide.(j) <- !k
  done;
  { items; s; cum; guide }

let items t = t.items
let s t = t.s

let probability t k =
  if k < 0 || k >= t.items then invalid_arg "Zipf.probability: key out of range";
  if k = 0 then t.cum.(0) else t.cum.(k) -. t.cum.(k - 1)

(* Smallest k with cum.(k) > u, for u in [0, 1). Inlined into both
   callers, so [u] stays an unboxed float. *)
let[@inline] invert t u =
  let j = int_of_float (u *. float_of_int t.items) in
  let k = ref t.guide.(if j < t.items then j else t.items - 1) in
  while !k > 0 && t.cum.(!k - 1) > u do
    decr k
  done;
  while t.cum.(!k) <= u do
    incr k
  done;
  !k

let quantile t u =
  if not (u >= 0. && u < 1.) then invalid_arg "Zipf.quantile: need 0 <= u < 1";
  invert t u

let sample t rng = invert t (float_of_int (Sim.Rng.bits53 rng) *. 0x1.0p-53)
