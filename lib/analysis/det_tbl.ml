let sorted_keys ~cmp tbl =
  (* The one legitimate unordered enumeration: its output is immediately
     sorted, which is the whole point of this module. *)
  (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
  [@lint.allow "D-hashtbl-iter" "keys are sorted before anything observes them"])
  |> List.sort_uniq cmp

let iter ~cmp f tbl =
  List.iter
    (fun k -> match Hashtbl.find_opt tbl k with Some v -> f k v | None -> ())
    (sorted_keys ~cmp tbl)

let fold ~cmp f tbl init =
  List.fold_left
    (fun acc k ->
      match Hashtbl.find_opt tbl k with Some v -> f k v acc | None -> acc)
    init (sorted_keys ~cmp tbl)

let bindings ~cmp tbl = List.rev (fold ~cmp (fun k v acc -> (k, v) :: acc) tbl [])

(* Same discipline for [Hashtbl.Make] instances. *)
module Keyed (T : Hashtbl.S) = struct
  let sorted_keys ~cmp tbl =
    (T.fold (fun k _ acc -> k :: acc) tbl []
    [@lint.allow "T-hashtbl-iter" "keys are sorted before anything observes them"])
    |> List.sort_uniq cmp

  let iter ~cmp f tbl =
    List.iter
      (fun k -> match T.find_opt tbl k with Some v -> f k v | None -> ())
      (sorted_keys ~cmp tbl)

  let fold ~cmp f tbl init =
    List.fold_left
      (fun acc k ->
        match T.find_opt tbl k with Some v -> f k v acc | None -> acc)
      init (sorted_keys ~cmp tbl)

  let bindings ~cmp tbl = List.rev (fold ~cmp (fun k v acc -> (k, v) :: acc) tbl [])
end
