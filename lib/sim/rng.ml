(* The splitmix64 state lives unboxed in 8 bytes, read and written with
   [Bytes.get_int64_ne]/[set_int64_ne]: a mutable [int64] field would box
   a fresh state on every draw. With [mix64] and [int64] inlined, a draw
   whose result feeds straight into arithmetic allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let r = Bytes.create 8 in
  Bytes.set_int64_ne r 0 seed;
  r

let[@inline] int64 r =
  let state = Int64.add (Bytes.get_int64_ne r 0) golden_gamma in
  Bytes.set_int64_ne r 0 state;
  mix64 state

let split r = create (int64 r)
let copy = Bytes.copy

let[@inline] bits53 r = Int64.to_int (Int64.shift_right_logical (int64 r) 11)

(* A float uniform in [0, 1) built from the top 53 bits of an output; both
   conversions are exact below 2^53. *)
let[@inline] unit_float r = float_of_int (bits53 r) *. 0x1.0p-53

(* Rejection sampling to avoid modulo bias: [raw - v] starts the block of
   [n] values [raw] falls in, and the block is incomplete — its last value
   would lie past 2^63 - 1 — exactly when adding [n - 1] overflows. A
   toplevel function, so a draw builds no closure. *)
let rec below r n =
  let raw = Int64.shift_right_logical (int64 r) 1 in
  let v = Int64.rem raw (Int64.of_int n) in
  if Int64.add (Int64.sub raw v) (Int64.of_int (n - 1)) < 0L then below r n else Int64.to_int v

let int r n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  below r n

let float r x = unit_float r *. x

let uniform r a b =
  if b < a then invalid_arg "Rng.uniform: empty range";
  a +. (unit_float r *. (b -. a))

let uniform_int r a b =
  if b < a then invalid_arg "Rng.uniform_int: empty range";
  a + int r (b - a + 1)

let bool r p = unit_float r < p

let exponential r ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  -.mean *. log1p (-.unit_float r)

let uniform_span r a b =
  Sim_time.span_us (uniform_int r (Sim_time.span_to_us a) (Sim_time.span_to_us b))

let exponential_span r ~mean =
  let us = exponential r ~mean:(float_of_int (Sim_time.span_to_us mean)) in
  Sim_time.span_us (int_of_float (Float.round us))

let pick r a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int r (Array.length a))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
