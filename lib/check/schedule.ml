type event_kind =
  | Crash of int
  | Recover of int
  | Delay of int * Sim.Sim_time.span
  | Partition of int list list
  | Heal
  | Drop_window of { prob : float; until : Sim.Sim_time.span }
  | Duplicate_next of int
  (* Storage faults (see Db.Db_engine.fault and docs/CHECKING.md): the
     first three arm a fault on one server's WAL, the last two open a
     device-condition window that the explorer closes at [until]. *)
  | Torn_write of int
  | Fsync_lie of int
  | Corrupt_record of int
  | Slow_disk of { server : int; factor : float; until : Sim.Sim_time.span }
  | Disk_full of { server : int; until : Sim.Sim_time.span }

type event = { at : Sim.Sim_time.span; kind : event_kind }

type t = {
  servers : int;
  txs : int;
  spacing : Sim.Sim_time.span;
  events : event list;
}

let kind_rank = function
  | Crash _ -> 0
  | Recover _ -> 1
  | Delay _ -> 2
  | Partition _ -> 3
  | Heal -> 4
  | Drop_window _ -> 5
  | Duplicate_next _ -> 6
  | Torn_write _ -> 7
  | Fsync_lie _ -> 8
  | Corrupt_record _ -> 9
  | Slow_disk _ -> 10
  | Disk_full _ -> 11

(* Canonical form of a partition: indices in range and deduplicated, each
   group sorted, empty groups removed, groups ordered by their minimum.
   Structurally different writings of the same cut then compare equal. *)
let normalize_groups ~servers groups =
  groups
  |> List.map (fun g ->
         List.sort_uniq Int.compare (List.filter (fun i -> i >= 0 && i < servers) g))
  |> List.filter (fun g -> g <> [])
  |> List.sort (fun a b -> Int.compare (List.hd a) (List.hd b))

let compare_groups a b =
  let compare_group x y =
    let rec walk xs ys =
      match (xs, ys) with
      | [], [] -> 0
      | [], _ -> -1
      | _, [] -> 1
      | x :: xs, y :: ys ->
        let c = Int.compare x y in
        if c <> 0 then c else walk xs ys
    in
    walk x y
  in
  let rec walk xs ys =
    match (xs, ys) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs, y :: ys ->
      let c = compare_group x y in
      if c <> 0 then c else walk xs ys
  in
  walk a b

let compare_kind a b =
  let c = Int.compare (kind_rank a) (kind_rank b) in
  if c <> 0 then c
  else
    match (a, b) with
    | Crash i, Crash j
    | Recover i, Recover j
    | Duplicate_next i, Duplicate_next j
    | Torn_write i, Torn_write j
    | Fsync_lie i, Fsync_lie j
    | Corrupt_record i, Corrupt_record j ->
      Int.compare i j
    | Delay (i, x), Delay (j, y) ->
      let c = Int.compare i j in
      if c <> 0 then c
      else Int.compare (Sim.Sim_time.span_to_us x) (Sim.Sim_time.span_to_us y)
    | Partition x, Partition y -> compare_groups x y
    | Heal, Heal -> 0
    | Drop_window a, Drop_window b ->
      let c = Float.compare a.prob b.prob in
      if c <> 0 then c
      else Int.compare (Sim.Sim_time.span_to_us a.until) (Sim.Sim_time.span_to_us b.until)
    | Slow_disk a, Slow_disk b ->
      let c = Int.compare a.server b.server in
      if c <> 0 then c
      else
        let c = Float.compare a.factor b.factor in
        if c <> 0 then c
        else Int.compare (Sim.Sim_time.span_to_us a.until) (Sim.Sim_time.span_to_us b.until)
    | Disk_full a, Disk_full b ->
      let c = Int.compare a.server b.server in
      if c <> 0 then c
      else Int.compare (Sim.Sim_time.span_to_us a.until) (Sim.Sim_time.span_to_us b.until)
    | _ -> 0

let compare_event a b =
  let c = Int.compare (Sim.Sim_time.span_to_us a.at) (Sim.Sim_time.span_to_us b.at) in
  if c <> 0 then c else compare_kind a.kind b.kind

let valid_server ~servers i = i >= 0 && i < servers

(* Canonicalise one event against the server universe; [None] drops it. *)
let normalize_event ~servers e =
  match e.kind with
  | Crash i | Recover i -> if valid_server ~servers i then Some e else None
  | Delay (i, _) -> if valid_server ~servers i then Some e else None
  | Duplicate_next i -> if valid_server ~servers i then Some e else None
  | Heal -> Some e
  | Partition groups -> (
    match normalize_groups ~servers groups with
    | [] -> None
    | groups -> Some { e with kind = Partition groups })
  | Drop_window { prob; until } ->
    let prob = Float.min 1. (Float.max 0. prob) in
    (* The window cannot close before it opens. *)
    let until =
      if Sim.Sim_time.span_to_us until < Sim.Sim_time.span_to_us e.at then e.at else until
    in
    Some { e with kind = Drop_window { prob; until } }
  | Torn_write i | Fsync_lie i | Corrupt_record i ->
    if valid_server ~servers i then Some e else None
  | Slow_disk { server; factor; until } ->
    if not (valid_server ~servers server) then None
    else begin
      let factor = Float.max 1. factor in
      let until =
        if Sim.Sim_time.span_to_us until < Sim.Sim_time.span_to_us e.at then e.at else until
      in
      Some { e with kind = Slow_disk { server; factor; until } }
    end
  | Disk_full { server; until } ->
    if not (valid_server ~servers server) then None
    else begin
      let until =
        if Sim.Sim_time.span_to_us until < Sim.Sim_time.span_to_us e.at then e.at else until
      in
      Some { e with kind = Disk_full { server; until } }
    end

let make ~servers ~txs ~spacing events =
  let events = List.sort compare_event (List.filter_map (normalize_event ~servers) events) in
  { servers; txs; spacing; events }

let event_count t = List.length t.events

let compare a b =
  let c = Int.compare a.servers b.servers in
  if c <> 0 then c
  else
    let c = Int.compare a.txs b.txs in
    if c <> 0 then c
    else
      let c = Int.compare (Sim.Sim_time.span_to_us a.spacing) (Sim.Sim_time.span_to_us b.spacing) in
      if c <> 0 then c
      else
        let rec walk xs ys =
          match (xs, ys) with
          | [], [] -> 0
          | [], _ -> -1
          | _, [] -> 1
          | x :: xs, y :: ys ->
            let c = compare_event x y in
            if c <> 0 then c else walk xs ys
        in
        walk a.events b.events

let equal a b = compare a b = 0

(* ---- fairness ---- *)

(* Events are sorted (see [make]), so walking the list is walking the
   execution: at equal instants Crash ranks before Recover and Partition
   before Heal, which is also the order the explorer fires them. *)
let fairness_violation ~horizon t =
  let horizon_us = Sim.Sim_time.span_to_us horizon in
  let spf = Printf.sprintf in
  let pp_at at = spf "%dus" (Sim.Sim_time.span_to_us at) in
  let down = ref [] in
  let open_partition = ref None in
  let rec walk = function
    | [] -> (
      match (List.sort Int.compare !down, !open_partition) with
      | i :: _, _ -> Some (spf "S%d crashes and never recovers" i)
      | [], Some at -> Some (spf "partition at %s never heals" (pp_at at))
      | [], None -> None)
    | e :: rest ->
      if Sim.Sim_time.span_to_us e.at > horizon_us then
        Some (spf "event at %s is past the %s horizon and never fires" (pp_at e.at)
            (pp_at horizon))
      else begin
        match e.kind with
        | Crash i ->
          if not (List.mem i !down) then down := i :: !down;
          walk rest
        | Recover i ->
          down := List.filter (fun j -> j <> i) !down;
          walk rest
        | Partition _ ->
          open_partition := Some e.at;
          walk rest
        | Heal ->
          open_partition := None;
          walk rest
        | Drop_window { until; _ } ->
          if Sim.Sim_time.span_to_us until > horizon_us then
            Some (spf "drop window at %s stays open past the horizon (until %s)"
                (pp_at e.at) (pp_at until))
          else walk rest
        | Delay (i, d) ->
          if Sim.Sim_time.span_to_us d > horizon_us then
            Some (spf "delivery delay of %s on S%d exceeds the horizon" (pp_at d) i)
          else walk rest
        | Duplicate_next _ -> walk rest
        (* Arming a storage fault is fairness-neutral: the disk betrays
           once and recovery repairs it. Device-condition windows must
           close inside the horizon like loss windows. *)
        | Torn_write _ | Fsync_lie _ | Corrupt_record _ -> walk rest
        | Slow_disk { server; until; _ } ->
          if Sim.Sim_time.span_to_us until > horizon_us then
            Some (spf "slow-disk window on S%d at %s stays open past the horizon (until %s)"
                server (pp_at e.at) (pp_at until))
          else walk rest
        | Disk_full { server; until } ->
          if Sim.Sim_time.span_to_us until > horizon_us then
            Some (spf "disk-full window on S%d at %s stays open past the horizon (until %s)"
                server (pp_at e.at) (pp_at until))
          else walk rest
      end
  in
  walk t.events

let fair ~horizon t = fairness_violation ~horizon t = None

(* ---- shrinking ---- *)

let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let half_span s = Sim.Sim_time.span_us (Sim.Sim_time.span_to_us s / 2)

let halve_times t =
  make ~servers:t.servers ~txs:t.txs ~spacing:t.spacing
    (List.map
       (fun e ->
         let e = { e with at = half_span e.at } in
         match e.kind with
         (* The closing edge travels with the opening edge. *)
         | Drop_window w -> { e with kind = Drop_window { w with until = half_span w.until } }
         | Slow_disk w -> { e with kind = Slow_disk { w with until = half_span w.until } }
         | Disk_full w -> { e with kind = Disk_full { w with until = half_span w.until } }
         | _ -> e)
       t.events)

let halve_delays t =
  {
    t with
    events =
      List.map
        (fun e ->
          match e.kind with
          | Delay (i, d) -> { e with kind = Delay (i, half_span d) }
          | _ -> e)
        t.events;
  }

(* Shorten every loss and device-condition window towards its opening
   instant. *)
let halve_windows t =
  make ~servers:t.servers ~txs:t.txs ~spacing:t.spacing
    (List.map
       (fun e ->
         let halved until =
           let at_us = Sim.Sim_time.span_to_us e.at in
           let until_us = Sim.Sim_time.span_to_us until in
           Sim.Sim_time.span_us (at_us + ((until_us - at_us) / 2))
         in
         match e.kind with
         | Drop_window { prob; until } ->
           { e with kind = Drop_window { prob; until = halved until } }
         | Slow_disk w -> { e with kind = Slow_disk { w with until = halved w.until } }
         | Disk_full w -> { e with kind = Disk_full { w with until = halved w.until } }
         | _ -> e)
       t.events)

(* A partition and the heal that follows it form one fault: removing the
   pair is a structurally smaller schedule than removing either edge alone
   (a dangling Partition leaves the net split until the explorer's
   end-of-run heal; a dangling Heal is usually a no-op). *)
let drop_partition_heal_pairs t =
  let rec pairs i = function
    | [] -> []
    | { kind = Partition _; _ } :: rest ->
      let rec find_heal j = function
        | [] -> None
        | { kind = Heal; _ } :: _ -> Some j
        | _ :: rest -> find_heal (j + 1) rest
      in
      let this =
        match find_heal (i + 1) rest with
        | Some j ->
          [ { t with events = List.filteri (fun k _ -> k <> i && k <> j) t.events } ]
        | None -> []
      in
      this @ pairs (i + 1) rest
    | _ :: rest -> pairs (i + 1) rest
  in
  pairs 0 t.events

(* An armed storage fault and the crash that fires it form one fault:
   dropping only the arm leaves a crash that was there to trigger it, and
   dropping only the crash leaves an arm that never fires. Propose
   removing the arm together with the next crash of the same server. *)
let drop_fault_crash_pairs t =
  let rec pairs i = function
    | [] -> []
    | { kind = Torn_write s | Fsync_lie s | Corrupt_record s; _ } :: rest ->
      let rec find_crash j = function
        | [] -> None
        | { kind = Crash s'; _ } :: _ when s' = s -> Some j
        | _ :: rest -> find_crash (j + 1) rest
      in
      let this =
        match find_crash (i + 1) rest with
        | Some j ->
          [ { t with events = List.filteri (fun k _ -> k <> i && k <> j) t.events } ]
        | None -> []
      in
      this @ pairs (i + 1) rest
    | _ :: rest -> pairs (i + 1) rest
  in
  pairs 0 t.events

let shrink t =
  let dedup candidates = List.filter (fun c -> not (equal c t)) candidates in
  let drops = List.mapi (fun i _ -> { t with events = drop_nth i t.events }) t.events in
  let pair_drops = drop_partition_heal_pairs t @ drop_fault_crash_pairs t in
  let fewer_txs =
    if t.txs > 1 then [ { t with txs = 1 }; { t with txs = t.txs - 1 } ] else []
  in
  let fewer_servers =
    if t.servers > 2 then
      [ make ~servers:(t.servers - 1) ~txs:t.txs ~spacing:t.spacing t.events ]
    else []
  in
  (* Deduplicate while preserving order: drops of identical events, or
     txs/2 = txs-1, can propose the same candidate twice. *)
  let seen = ref [] in
  List.filter
    (fun c ->
      if List.exists (equal c) !seen then false
      else begin
        seen := c :: !seen;
        true
      end)
    (dedup
       (pair_drops @ drops @ fewer_txs @ fewer_servers
       @ [ halve_times t; halve_windows t; halve_delays t ]))

(* ---- printing ---- *)

let pp_groups ppf groups =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
       (fun ppf g ->
         Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
           (fun ppf i -> Format.fprintf ppf "S%d" i)
           ppf g))
    groups

let pp_event ppf e =
  match e.kind with
  | Crash i -> Format.fprintf ppf "@%a crash S%d" Sim.Sim_time.pp_span e.at i
  | Recover i -> Format.fprintf ppf "@%a recover S%d" Sim.Sim_time.pp_span e.at i
  | Delay (i, d) ->
    Format.fprintf ppf "@%a delay S%d deliveries by %a" Sim.Sim_time.pp_span e.at i
      Sim.Sim_time.pp_span d
  | Partition groups ->
    Format.fprintf ppf "@%a partition %a" Sim.Sim_time.pp_span e.at pp_groups groups
  | Heal -> Format.fprintf ppf "@%a heal" Sim.Sim_time.pp_span e.at
  | Drop_window { prob; until } ->
    Format.fprintf ppf "@%a drop %.0f%% of messages until %a" Sim.Sim_time.pp_span e.at
      (prob *. 100.) Sim.Sim_time.pp_span until
  | Duplicate_next i ->
    Format.fprintf ppf "@%a duplicate next message to S%d" Sim.Sim_time.pp_span e.at i
  | Torn_write i ->
    Format.fprintf ppf "@%a arm torn write on S%d (next crash tears the WAL tail)"
      Sim.Sim_time.pp_span e.at i
  | Fsync_lie i ->
    Format.fprintf ppf "@%a arm lying fsync on S%d (next crash drops acked records)"
      Sim.Sim_time.pp_span e.at i
  | Corrupt_record i ->
    Format.fprintf ppf "@%a corrupt newest WAL record on S%d" Sim.Sim_time.pp_span e.at i
  | Slow_disk { server; factor; until } ->
    Format.fprintf ppf "@%a slow disk on S%d (%.0fx) until %a" Sim.Sim_time.pp_span e.at
      server factor Sim.Sim_time.pp_span until
  | Disk_full { server; until } ->
    Format.fprintf ppf "@%a disk full on S%d until %a" Sim.Sim_time.pp_span e.at server
      Sim.Sim_time.pp_span until

let pp ppf t =
  Format.fprintf ppf "@[<v>%d servers, %d tx (one every %a)" t.servers t.txs
    Sim.Sim_time.pp_span t.spacing;
  List.iter (fun e -> Format.fprintf ppf "@,  %a" pp_event e) t.events;
  if t.events = [] then Format.fprintf ppf "@,  (no fault events)";
  Format.fprintf ppf "@]"

let render t = Format.asprintf "%a" pp t

(* ---- corpus format ----

   One key or event per line; all times in integer microseconds and
   floats in their shortest exact decimal, so files round-trip exactly.
   Lines starting with '#' are comments — the corpus runners read replay
   directives (technique, mutation, expectation) that are not part of the
   schedule value itself from the `# key=value` ones. *)

(* The shortest decimal that reads back as the same float, so drop
   probabilities and slow-disk factors round-trip exactly too. *)
let float_repr f =
  let s = Printf.sprintf "%.15g" f in
  if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

let serialize t =
  let b = Buffer.create 256 in
  let put fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  put "servers %d" t.servers;
  put "txs %d" t.txs;
  put "spacing_us %d" (Sim.Sim_time.span_to_us t.spacing);
  List.iter
    (fun e ->
      let at = Sim.Sim_time.span_to_us e.at in
      match e.kind with
      | Crash i -> put "event %d crash %d" at i
      | Recover i -> put "event %d recover %d" at i
      | Delay (i, d) -> put "event %d delay %d %d" at i (Sim.Sim_time.span_to_us d)
      | Partition groups ->
        put "event %d partition %s" at
          (String.concat "|"
             (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups))
      | Heal -> put "event %d heal" at
      | Drop_window { prob; until } ->
        put "event %d drop %s %d" at (float_repr prob) (Sim.Sim_time.span_to_us until)
      | Duplicate_next i -> put "event %d dup %d" at i
      | Torn_write i -> put "event %d torn %d" at i
      | Fsync_lie i -> put "event %d lie %d" at i
      | Corrupt_record i -> put "event %d corrupt %d" at i
      | Slow_disk { server; factor; until } ->
        put "event %d slow %d %s %d" at server (float_repr factor) (Sim.Sim_time.span_to_us until)
      | Disk_full { server; until } ->
        put "event %d full %d %d" at server (Sim.Sim_time.span_to_us until))
    t.events;
  Buffer.contents b

let parse text =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let lines = String.split_on_char '\n' text in
  let servers = ref None and txs = ref None and spacing = ref None in
  let events = ref [] in
  let parse_line lineno line =
    let line = String.trim line in
    if line = "" || String.length line > 0 && line.[0] = '#' then Ok ()
    else
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ "servers"; n ] -> (
        match int_of_string_opt n with
        | Some n -> servers := Some n; Ok ()
        | None -> err "line %d: bad server count %S" lineno n)
      | [ "txs"; n ] -> (
        match int_of_string_opt n with
        | Some n -> txs := Some n; Ok ()
        | None -> err "line %d: bad tx count %S" lineno n)
      | [ "spacing_us"; n ] -> (
        match int_of_string_opt n with
        | Some n -> spacing := Some (Sim.Sim_time.span_us n); Ok ()
        | None -> err "line %d: bad spacing %S" lineno n)
      | "event" :: at :: rest -> (
        match int_of_string_opt at with
        | None -> err "line %d: bad event time %S" lineno at
        | Some at -> (
          let at = Sim.Sim_time.span_us at in
          let int_arg name s k =
            match int_of_string_opt s with
            | Some i -> k i
            | None -> err "line %d: bad %s %S" lineno name s
          in
          let add kind = events := { at; kind } :: !events; Ok () in
          match rest with
          | [ "crash"; i ] -> int_arg "server" i (fun i -> add (Crash i))
          | [ "recover"; i ] -> int_arg "server" i (fun i -> add (Recover i))
          | [ "delay"; i; d ] ->
            int_arg "server" i (fun i ->
                int_arg "delay" d (fun d -> add (Delay (i, Sim.Sim_time.span_us d))))
          | [ "partition"; groups ] -> (
            let parse_group g =
              String.split_on_char ',' g |> List.map int_of_string_opt
              |> List.fold_left
                   (fun acc i ->
                     match (acc, i) with Some acc, Some i -> Some (i :: acc) | _ -> None)
                   (Some [])
            in
            match
              String.split_on_char '|' groups |> List.map parse_group
              |> List.fold_left
                   (fun acc g ->
                     match (acc, g) with Some acc, Some g -> Some (List.rev g :: acc) | _ -> None)
                   (Some [])
            with
            | Some gs -> add (Partition (List.rev gs))
            | None -> err "line %d: bad partition groups %S" lineno groups)
          | [ "heal" ] -> add Heal
          | [ "drop"; prob; until ] -> (
            match float_of_string_opt prob with
            | Some prob ->
              int_arg "window close" until (fun u ->
                  add (Drop_window { prob; until = Sim.Sim_time.span_us u }))
            | None -> err "line %d: bad drop probability %S" lineno prob)
          | [ "dup"; i ] -> int_arg "server" i (fun i -> add (Duplicate_next i))
          | [ "torn"; i ] -> int_arg "server" i (fun i -> add (Torn_write i))
          | [ "lie"; i ] -> int_arg "server" i (fun i -> add (Fsync_lie i))
          | [ "corrupt"; i ] -> int_arg "server" i (fun i -> add (Corrupt_record i))
          | [ "slow"; i; factor; until ] -> (
            match float_of_string_opt factor with
            | Some factor ->
              int_arg "server" i (fun server ->
                  int_arg "window close" until (fun u ->
                      add (Slow_disk { server; factor; until = Sim.Sim_time.span_us u })))
            | None -> err "line %d: bad slow-disk factor %S" lineno factor)
          | [ "full"; i; until ] ->
            int_arg "server" i (fun server ->
                int_arg "window close" until (fun u ->
                    add (Disk_full { server; until = Sim.Sim_time.span_us u })))
          | _ -> err "line %d: unknown event %S" lineno line))
      | _ -> err "line %d: unknown directive %S" lineno line
  in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest -> ( match parse_line lineno line with Ok () -> go (lineno + 1) rest | e -> e)
  in
  match go 1 lines with
  | Error _ as e -> e
  | Ok () -> (
    match (!servers, !txs, !spacing) with
    | Some servers, Some txs, Some spacing ->
      Ok (make ~servers ~txs ~spacing (List.rev !events))
    | None, _, _ -> Error "missing 'servers' line"
    | _, None, _ -> Error "missing 'txs' line"
    | _, _, None -> Error "missing 'spacing_us' line")

(* Prose comment lines carry no '=', or only inside phrases whose "key"
   has spaces. *)
let directives text =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if String.length line > 1 && line.[0] = '#' then
        match String.index_opt line '=' with
        | Some eq ->
          let key = String.trim (String.sub line 1 (eq - 1)) in
          let value = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
          if key = "" || String.contains key ' ' then None else Some (key, value)
        | None -> None
      else None)
    (String.split_on_char '\n' text)
