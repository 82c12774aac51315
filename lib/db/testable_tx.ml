type outcome = Committed | Aborted

let outcome_equal a b =
  match (a, b) with
  | Committed, Committed | Aborted, Aborted -> true
  | Committed, Aborted | Aborted, Committed -> false

let outcome_to_string = function Committed -> "committed" | Aborted -> "aborted"
let pp_outcome ppf o = Format.pp_print_string ppf (outcome_to_string o)

(* One byte per id, in pages of [page_size] consecutive ids: '\000' for
   none recorded, '\001' committed, '\002' aborted. Ids come in a few
   clusters — the workload's dense block, sharded sub-transactions just
   below 0, probes far above — so a handful of pages, each under its key
   [id asr page_bits], covers them. Lookups try the last page found
   first. *)
let page_bits = 12
let page_size = 1 lsl page_bits

type t = {
  mutable pages : (int * Bytes.t) list;
  mutable last_key : int;  (* [no_key] when unset *)
  mutable last_page : Bytes.t;
  mutable count : int;
  mutable committed : int;
}

type frozen = { f_pages : (int * Bytes.t) list; f_count : int; f_committed : int }

(* No id maps to it: [id asr page_bits] > [min_int]. *)
let no_key = min_int

let create () =
  { pages = []; last_key = no_key; last_page = Bytes.empty; count = 0; committed = 0 }

let code = function Committed -> '\001' | Aborted -> '\002'

let rec assoc (key : int) = function
  | [] -> Bytes.empty
  | (k, page) :: rest -> if k = key then page else assoc key rest

let cache t key page =
  t.last_key <- key;
  t.last_page <- page;
  page

(* The page holding [key]'s ids; [Bytes.empty] if none does. *)
let find_page t key =
  if key = t.last_key then t.last_page
  else
    let page = assoc key t.pages in
    if Bytes.length page > 0 then cache t key page else page

let page_for_write t key =
  let page = find_page t key in
  if Bytes.length page > 0 then page
  else begin
    let page = Bytes.make page_size '\000' in
    t.pages <- (key, page) :: t.pages;
    cache t key page
  end

let byte t id =
  let page = find_page t (id asr page_bits) in
  if Bytes.length page = 0 then '\000' else Bytes.unsafe_get page (id land (page_size - 1))

let record t id outcome =
  let page = page_for_write t (id asr page_bits) in
  let off = id land (page_size - 1) in
  match Bytes.unsafe_get page off with
  | '\000' ->
    Bytes.unsafe_set page off (code outcome);
    t.count <- t.count + 1;
    if outcome_equal outcome Committed then t.committed <- t.committed + 1
  | prior ->
    if not (Char.equal prior (code outcome)) then
      invalid_arg (Printf.sprintf "Testable_tx.record: conflicting outcome for T%d" id)

let find t id =
  match byte t id with '\001' -> Some Committed | '\002' -> Some Aborted | _ -> None

let already_processed t id = not (Char.equal (byte t id) '\000')
let count t = t.count
let committed_count t = t.committed

let reset t =
  t.pages <- [];
  t.last_key <- no_key;
  t.last_page <- Bytes.empty;
  t.count <- 0;
  t.committed <- 0

let copy_pages pages = List.map (fun (key, page) -> (key, Bytes.copy page)) pages
let freeze t = { f_pages = copy_pages t.pages; f_count = t.count; f_committed = t.committed }

let thaw t f =
  t.pages <- copy_pages f.f_pages;
  t.last_key <- no_key;
  t.last_page <- Bytes.empty;
  t.count <- f.f_count;
  t.committed <- f.f_committed
