type t = int
type span = int

let zero = 0

let of_us n =
  if n < 0 then invalid_arg "Sim_time.of_us: negative";
  n

let to_us t = t

let span_us n =
  if n < 0 then invalid_arg "Sim_time.span_us: negative";
  n

let span_ms x =
  if x < 0. then invalid_arg "Sim_time.span_ms: negative";
  int_of_float (Float.round (x *. 1000.))

let span_s x =
  if x < 0. then invalid_arg "Sim_time.span_s: negative";
  int_of_float (Float.round (x *. 1_000_000.))

let span_to_us d = d
let span_to_ms d = float_of_int d /. 1000.
let add t d = t + d

let diff a b =
  if a < b then invalid_arg "Sim_time.diff: negative span";
  a - b

let span_add a b = a + b
let span_zero = 0
let to_ms t = float_of_int t /. 1000.
let compare = Int.compare
let ( <= ) (a : t) b = a <= b
let ( < ) (a : t) b = a < b
let ( >= ) (a : t) b = a >= b
let ( > ) (a : t) b = a > b
let equal = Int.equal
let max = Int.max
let min = Int.min
let pp ppf t = Format.fprintf ppf "%.3fms" (to_ms t)
let pp_span ppf d = Format.fprintf ppf "%.3fms" (span_to_ms d)
