(* Log-bucketed integer histogram (HDR style).

   Values are non-negative integers — in practice simulated-time durations
   in microseconds. Buckets are exact (width 1) below [2^sub_bits]; above
   that, each power-of-two octave [2^k, 2^(k+1)) is split into
   [2^sub_bits] equal sub-buckets, so a bucket's width never exceeds
   [lo / 2^sub_bits]: every quantile estimate is bracketed within a
   relative error of [1 / 2^sub_bits] of the true sample.

   The representation is a plain counts array indexed by bucket, which
   makes merging two histograms a bucket-wise sum — exact, associative and
   commutative — so per-domain registries can be folded in any grouping
   and still export byte-identical results. *)

type t = {
  mutable counts : int array;  (* grows on demand; index = bucket *)
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;  (* max_int while empty *)
  mutable max_v : int;  (* -1 while empty *)
}

let sub_bits = 4
let sub_buckets = 1 lsl sub_bits (* 16 *)

let create () = { counts = [||]; count = 0; sum = 0; min_v = max_int; max_v = -1 }

(* Position of the most significant set bit of [v >= 1]. *)
let msb v =
  let k = ref 0 in
  let v = ref v in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

let bucket_of_value v =
  if v < sub_buckets then v
  else
    let k = msb v in
    sub_buckets + ((k - sub_bits) * sub_buckets) + ((v - (1 lsl k)) lsr (k - sub_bits))

(* Inclusive [lo, hi] range of values that land in bucket [idx]. *)
let bucket_bounds idx =
  if idx < sub_buckets then (idx, idx)
  else begin
    let octave = sub_bits + ((idx - sub_buckets) / sub_buckets) in
    let sub = (idx - sub_buckets) mod sub_buckets in
    let width = 1 lsl (octave - sub_bits) in
    let lo = (1 lsl octave) + (sub * width) in
    (lo, lo + width - 1)
  end

let ensure t idx =
  if idx >= Array.length t.counts then begin
    let capacity = Stdlib.max (idx + 1) (Stdlib.max 32 (2 * Array.length t.counts)) in
    let counts = Array.make capacity 0 in
    Array.blit t.counts 0 counts 0 (Array.length t.counts);
    t.counts <- counts
  end

let add t v =
  if v < 0 then invalid_arg "Histogram.add: negative value";
  let idx = bucket_of_value v in
  ensure t idx;
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = if t.count = 0 then 0 else t.max_v
let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

let quantile_bounds t q =
  if t.count = 0 then invalid_arg "Histogram.quantile_bounds: empty histogram";
  if not (q >= 0. && q <= 1.) then invalid_arg "Histogram.quantile_bounds: q outside [0, 1]";
  let rank = Stdlib.max 1 (Stdlib.min t.count (int_of_float (ceil (q *. float_of_int t.count)))) in
  let idx = ref 0 and seen = ref 0 in
  while !seen < rank do
    seen := !seen + t.counts.(!idx);
    if !seen < rank then incr idx
  done;
  let lo, hi = bucket_bounds !idx in
  (* The rank-th sample lies in this bucket, and globally within
     [min_v, max_v]; intersecting the two can only tighten the bracket. *)
  (Stdlib.max lo t.min_v, Stdlib.min hi t.max_v)

let merge_into ~into src =
  ensure into (Array.length src.counts - 1);
  Array.iteri (fun idx c -> if c > 0 then into.counts.(idx) <- into.counts.(idx) + c) src.counts;
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

let buckets t =
  let acc = ref [] in
  for idx = Array.length t.counts - 1 downto 0 do
    let c = t.counts.(idx) in
    if c > 0 then begin
      let lo, hi = bucket_bounds idx in
      acc := (lo, hi, c) :: !acc
    end
  done;
  !acc

let equal a b =
  a.count = b.count && a.sum = b.sum
  && min_value a = min_value b
  && max_value a = max_value b
  && buckets a = buckets b
