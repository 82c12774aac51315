module Int_tbl = Analysis.Int_tbl

type mode = Shared | Exclusive

type request = { r_tx : int; r_mode : mode; r_granted : unit -> unit }

type item_locks = { mutable holders : (int * mode) list; queue : request Queue.t }

type t = {
  items : item_locks Int_tbl.t;
  held_by : int list ref Int_tbl.t;  (* tx -> items held *)
  queued_on : int list ref Int_tbl.t;  (* tx -> items with a queued request *)
  mutable waiting : int;
  mutable deadlocks : int;
}

let create () =
  {
    items = Int_tbl.create 256;
    held_by = Int_tbl.create 64;
    queued_on = Int_tbl.create 64;
    waiting = 0;
    deadlocks = 0;
  }

let item_locks t item =
  match Int_tbl.find_opt t.items item with
  | Some l -> l
  | None ->
    let l = { holders = []; queue = Queue.create () } in
    Int_tbl.replace t.items item l;
    l

let multiset_add tbl key v =
  match Int_tbl.find_opt tbl key with
  | Some l -> if not (List.mem v !l) then l := v :: !l
  | None -> Int_tbl.replace tbl key (ref [ v ])

let multiset_remove tbl key v =
  match Int_tbl.find_opt tbl key with
  | Some l ->
    l := List.filter (fun x -> x <> v) !l;
    if !l = [] then Int_tbl.remove tbl key
  | None -> ()

let held_mode locks tx = List.assoc_opt tx locks.holders

(* A request by [tx] is grantable when every other holder is compatible. *)
let grantable locks tx mode =
  List.for_all (fun (h, m) -> h = tx || (mode = Shared && m = Shared)) locks.holders

let grant t item locks { r_tx; r_mode; r_granted } =
  locks.holders <- (r_tx, r_mode) :: List.remove_assoc r_tx locks.holders;
  multiset_add t.held_by r_tx item;
  r_granted ()

let dispatch t item locks =
  let rec loop () =
    match Queue.peek_opt locks.queue with
    | Some head when grantable locks head.r_tx head.r_mode ->
      ignore (Queue.pop locks.queue);
      t.waiting <- t.waiting - 1;
      multiset_remove t.queued_on head.r_tx item;
      grant t item locks head;
      loop ()
    | Some _ | None -> ()
  in
  loop ()

(* Transactions that a queued-or-new request of [tx] on [item] waits behind:
   incompatible holders plus everything already queued. *)
let blockers locks tx =
  let holder_blockers =
    List.filter_map (fun (h, _) -> if h <> tx then Some h else None) locks.holders
  in
  Queue.fold (fun acc r -> if r.r_tx <> tx then r.r_tx :: acc else acc) holder_blockers locks.queue

let edges_of t waiter =
  match Int_tbl.find_opt t.queued_on waiter with
  | None -> []
  | Some items ->
    List.concat_map
      (fun item ->
        match Int_tbl.find_opt t.items item with
        | Some locks -> blockers locks waiter
        | None -> [])
      !items

let would_deadlock t ~tx ~item =
  let visited = Int_tbl.create 16 in
  let rec reaches_tx node =
    node = tx
    || (not (Int_tbl.mem visited node))
       && begin
         Int_tbl.replace visited node ();
         List.exists reaches_tx (edges_of t node)
       end
  in
  List.exists reaches_tx (blockers (item_locks t item) tx)

let acquire t ~tx ~item ~mode ~granted =
  let locks = item_locks t item in
  match held_mode locks tx with
  | Some Exclusive ->
    granted ();
    `Ok
  | Some Shared when mode = Shared ->
    granted ();
    `Ok
  | held -> begin
    (* Fresh acquisition, or an upgrade from shared to exclusive. *)
    ignore held;
    if Queue.is_empty locks.queue && grantable locks tx mode then begin
      grant t item locks { r_tx = tx; r_mode = mode; r_granted = granted };
      `Ok
    end
    else if would_deadlock t ~tx ~item then begin
      t.deadlocks <- t.deadlocks + 1;
      `Deadlock
    end
    else begin
      Queue.push { r_tx = tx; r_mode = mode; r_granted = granted } locks.queue;
      t.waiting <- t.waiting + 1;
      multiset_add t.queued_on tx item;
      `Ok
    end
  end

let release_all t ~tx =
  let touched = ref [] in
  (match Int_tbl.find_opt t.held_by tx with
   | Some items ->
     List.iter
       (fun item ->
         match Int_tbl.find_opt t.items item with
         | Some locks ->
           locks.holders <- List.remove_assoc tx locks.holders;
           touched := item :: !touched
         | None -> ())
       !items;
     Int_tbl.remove t.held_by tx
   | None -> ());
  (match Int_tbl.find_opt t.queued_on tx with
   | Some items ->
     List.iter
       (fun item ->
         match Int_tbl.find_opt t.items item with
         | Some locks ->
           let keep = Queue.create () in
           Queue.iter
             (fun r -> if r.r_tx <> tx then Queue.push r keep else t.waiting <- t.waiting - 1)
             locks.queue;
           Queue.clear locks.queue;
           Queue.transfer keep locks.queue;
           touched := item :: !touched
         | None -> ())
       !items;
     Int_tbl.remove t.queued_on tx
   | None -> ());
  List.iter
    (fun item ->
      match Int_tbl.find_opt t.items item with
      | Some locks -> dispatch t item locks
      | None -> ())
    (List.sort_uniq Int.compare !touched)

let holds t ~tx ~item =
  match Int_tbl.find_opt t.items item with
  | Some locks -> List.mem_assoc tx locks.holders
  | None -> false

let waiting t = t.waiting
let deadlocks_detected t = t.deadlocks
