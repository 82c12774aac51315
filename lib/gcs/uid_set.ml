(* One (origin, incarnation)'s members: every seq below [e_below], plus
   the ascending [e_above], all greater than [e_below]. An insertion of
   [e_below] itself advances the prefix and drains [e_above] into it. *)
type entry = {
  e_origin : int;
  e_incarnation : int;
  mutable e_below : int;
  mutable e_above : int list;
}

(* Ascending (origin, incarnation). *)
type t = { mutable entries : entry list }

type run = { origin : int; incarnation : int; below : int; above : int list }

let create () = { entries = [] }
let reset s = s.entries <- []

let before e origin incarnation =
  e.e_origin < origin || (e.e_origin = origin && e.e_incarnation < incarnation)

let rec insert_entry e = function
  | x :: rest when before x e.e_origin e.e_incarnation -> x :: insert_entry e rest
  | entries -> e :: entries

(* The entry of (origin, incarnation), made on first use. A hit walks the
   list without allocating. *)
let rec entry_in s entries origin incarnation =
  match entries with
  | [] ->
    let e = { e_origin = origin; e_incarnation = incarnation; e_below = 0; e_above = [] } in
    s.entries <- insert_entry e s.entries;
    e
  | e :: rest ->
    if e.e_origin = origin && e.e_incarnation = incarnation then e
    else entry_in s rest origin incarnation

let rec mem_sorted (seq : int) = function
  | [] -> false
  | x :: rest -> x = seq || (x < seq && mem_sorted seq rest)

let rec insert_sorted (seq : int) = function
  | x :: rest when x < seq -> x :: insert_sorted seq rest
  | l -> seq :: l

let rec drain e =
  match e.e_above with
  | x :: rest when x = e.e_below ->
    e.e_below <- x + 1;
    e.e_above <- rest;
    drain e
  | _ -> ()

let add_seq e seq =
  if seq < e.e_below || mem_sorted seq e.e_above then false
  else begin
    if seq = e.e_below then begin
      e.e_below <- seq + 1;
      drain e
    end
    else e.e_above <- insert_sorted seq e.e_above;
    true
  end

let add s { Uid.origin; incarnation; seq } = add_seq (entry_in s s.entries origin incarnation) seq

let export s =
  List.map
    (fun e ->
      { origin = e.e_origin; incarnation = e.e_incarnation; below = e.e_below; above = e.e_above })
    s.entries

let rec drop_below (bound : int) = function
  | x :: rest when x < bound -> drop_below bound rest
  | l -> l

let import s runs =
  List.iter
    (fun r ->
      let e = entry_in s s.entries r.origin r.incarnation in
      if r.below > e.e_below then begin
        e.e_below <- r.below;
        e.e_above <- drop_below r.below e.e_above;
        drain e
      end;
      List.iter (fun seq -> ignore (add_seq e seq)) r.above)
    runs
