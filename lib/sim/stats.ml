type series = {
  mutable data : float array;
  mutable size : int;
  (* Welford accumulators, kept alongside the raw samples so that mean and
     variance stay O(1) even for very long runs. *)
  mutable w_mean : float;
  mutable w_m2 : float;
  mutable sorted : float array option; (* cache, invalidated on add *)
}

let series (_name : string) =
  {
    data = [||];
    size = 0;
    w_mean = 0.;
    w_m2 = 0.;
    sorted = None;
  }

let add s x =
  if s.size = Array.length s.data then begin
    let capacity = Stdlib.max 64 (2 * Array.length s.data) in
    let data = Array.make capacity 0. in
    Array.blit s.data 0 data 0 s.size;
    s.data <- data
  end;
  s.data.(s.size) <- x;
  s.size <- s.size + 1;
  let delta = x -. s.w_mean in
  s.w_mean <- s.w_mean +. (delta /. float_of_int s.size);
  s.w_m2 <- s.w_m2 +. (delta *. (x -. s.w_mean));
  s.sorted <- None

let count s = s.size
let mean s = if s.size = 0 then nan else s.w_mean
let variance s = if s.size < 2 then nan else s.w_m2 /. float_of_int (s.size - 1)
let stddev s = sqrt (variance s)

let sorted_samples s =
  match s.sorted with
  | Some a -> a
  | None ->
    let a = Array.sub s.data 0 s.size in
    Array.sort Float.compare a;
    s.sorted <- Some a;
    a

let percentile s p =
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: out of range";
  if s.size = 0 then nan
  else begin
    let a = sorted_samples s in
    let rank = p /. 100. *. float_of_int (s.size - 1) in
    let lo_idx = int_of_float (Float.of_int (int_of_float rank)) in
    let hi_idx = Stdlib.min (lo_idx + 1) (s.size - 1) in
    let frac = rank -. float_of_int lo_idx in
    a.(lo_idx) +. (frac *. (a.(hi_idx) -. a.(lo_idx)))
  end

let confidence95 s =
  if s.size < 2 then nan else 1.96 *. stddev s /. sqrt (float_of_int s.size)

let samples s = Array.sub s.data 0 s.size

let merge name ss =
  let out = series name in
  List.iter (fun s -> Array.iter (add out) (samples s)) ss;
  out
