(* [last_written] is a window over items [base, base + length): slot [i]
   holds the version that last wrote item [base + i], or 0 if none did
   (versions start at 1). The window grows geometrically at whichever end
   an item falls outside, so a shard's certifier only spans its own key
   range. *)
type t = {
  mutable version : int;
  mutable base : int;
  mutable last_written : int array;
  mutable commits : int;
  mutable aborts : int;
}

type decision = Commit | Abort

let decision_equal a b =
  match (a, b) with Commit, Commit | Abort, Abort -> true | Commit, Abort | Abort, Commit -> false

let pp_decision ppf = function
  | Commit -> Format.pp_print_string ppf "commit"
  | Abort -> Format.pp_print_string ppf "abort"

let create () = { version = 0; base = 0; last_written = [||]; commits = 0; aborts = 0 }

let current_version c = c.version

let check_item item = if item < 0 then invalid_arg "Certifier: negative item"

(* The version that last wrote [item]; 0 if none did. *)
let written_at c item =
  check_item item;
  let i = item - c.base in
  if i >= 0 && i < Array.length c.last_written then Array.unsafe_get c.last_written i else 0

(* Re-allocates the window to take in [item], growing it geometrically at
   the end [item] falls beyond. *)
let grow c item =
  let base = c.base and len = Array.length c.last_written in
  let lo, hi =
    if len = 0 then (item, item + 16)
    else if item < base then (Int.max 0 (Int.min item (base - len)), base + len)
    else (base, base + Int.max (2 * len) (item - base + 1))
  in
  let window = Array.make (hi - lo) 0 in
  if len > 0 then Array.blit c.last_written 0 window (base - lo) len;
  c.base <- lo;
  c.last_written <- window

let record c item version =
  check_item item;
  let i = item - c.base in
  if i < 0 || i >= Array.length c.last_written then grow c item;
  Array.unsafe_set c.last_written (item - c.base) version

let check_only c ~start ~read_items =
  if List.exists (fun item -> written_at c item > start) read_items then Abort else Commit

let certify c ~start ~ws =
  match check_only c ~start ~read_items:ws.Transaction.read_items with
  | Abort ->
    c.aborts <- c.aborts + 1;
    Abort
  | Commit ->
    c.version <- c.version + 1;
    List.iter (fun (item, _) -> record c item c.version) ws.Transaction.write_values;
    c.commits <- c.commits + 1;
    Commit

let last_writer c item = match written_at c item with 0 -> None | v -> Some v
let commits c = c.commits
let aborts c = c.aborts

let reset c =
  c.version <- 0;
  c.base <- 0;
  c.last_written <- [||];
  c.commits <- 0;
  c.aborts <- 0

(* Walking the window upwards and consing yields descending item order. *)
let export c =
  let bindings = ref [] in
  for i = 0 to Array.length c.last_written - 1 do
    let v = Array.unsafe_get c.last_written i in
    if v <> 0 then bindings := (c.base + i, v) :: !bindings
  done;
  (c.version, !bindings)

let import c ~version ~bindings =
  reset c;
  c.version <- version;
  List.iter
    (fun (item, v) ->
      if v < 1 then invalid_arg "Certifier.import: versions start at 1";
      record c item v)
    bindings

let note_commit c ~write_items =
  c.version <- c.version + 1;
  List.iter (fun item -> record c item c.version) write_items
