type dissemination = Broadcast | Ring

type t = {
  batch : int;
  window : int;
  dissemination : dissemination;
}

let default = { batch = 1; window = max_int; dissemination = Broadcast }

let batched ?(batch = 32) ?(window = 32) () = { default with batch; window }
let ring ?(batch = 1) ?(window = 32) () = { batch; window; dissemination = Ring }

let dissemination_to_string = function Broadcast -> "broadcast" | Ring -> "ring"

let to_string t =
  if t = default then "seed"
  else
    Printf.sprintf "%s b=%d w=%s" (dissemination_to_string t.dissemination) t.batch
      (if t.window = max_int then "inf" else string_of_int t.window)

let pp ppf t = Format.pp_print_string ppf (to_string t)
