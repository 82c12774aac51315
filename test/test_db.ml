(* Tests for the local database component: transactions, locking,
   certification, testable transactions and the timed engine. *)

let ms = Sim.Sim_time.span_ms
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Op / Transaction ---- *)

let test_op_basics () =
  check_int "read item" 3 (Db.Op.item (Db.Op.Read 3));
  check_int "write item" 4 (Db.Op.item (Db.Op.Write (4, 9)));
  check_bool "is_write" true (Db.Op.is_write (Db.Op.Write (1, 1)));
  check_bool "read is not write" false (Db.Op.is_write (Db.Op.Read 1))

let test_transaction_sets () =
  let tx =
    Db.Transaction.make ~id:1 ~client:0
      [ Db.Op.Read 5; Db.Op.Write (3, 10); Db.Op.Read 3; Db.Op.Write (5, 20); Db.Op.Write (3, 11) ]
  in
  Alcotest.(check (list int)) "read set sorted" [ 3; 5 ] (Db.Transaction.read_set tx);
  Alcotest.(check (list int)) "write set sorted" [ 3; 5 ] (Db.Transaction.write_set tx);
  Alcotest.(check (list (pair int int)))
    "last write wins, program order" [ (3, 11); (5, 20) ] (Db.Transaction.writes tx);
  check_bool "update" true (Db.Transaction.is_update tx);
  check_int "ops" 5 (Db.Transaction.op_count tx)

let test_transaction_read_only () =
  let tx = Db.Transaction.make ~id:2 ~client:0 [ Db.Op.Read 1; Db.Op.Read 2 ] in
  check_bool "not an update" false (Db.Transaction.is_update tx);
  let ws = Db.Transaction.to_writeset tx in
  Alcotest.(check (list int)) "reads in writeset" [ 1; 2 ] ws.Db.Transaction.read_items;
  Alcotest.(check (list (pair int int))) "no writes" [] ws.Db.Transaction.write_values

let test_transaction_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Transaction.make: no operations") (fun () ->
      ignore (Db.Transaction.make ~id:1 ~client:0 []))

(* [Transaction.writes] before it dropped its scratch tables: the last
   value per item from one [Hashtbl], first-write order from another. *)
let two_table_writes (t : Db.Transaction.t) =
  let last = Hashtbl.create 8 in
  List.iter (function Db.Op.Write (i, v) -> Hashtbl.replace last i v | Db.Op.Read _ -> ()) t.ops;
  let seen = Hashtbl.create 8 in
  List.filter_map
    (function
      | Db.Op.Write (i, _) when not (Hashtbl.mem seen i) ->
        Hashtbl.replace seen i ();
        Some (i, Hashtbl.find last i)
      | Db.Op.Write _ | Db.Op.Read _ -> None)
    t.ops

let prop_writes_match_two_table_version =
  (* Few items and many ops: items are rewritten, reads interleave. *)
  let op =
    QCheck2.Gen.(
      oneof
        [
          map (fun i -> Db.Op.Read i) (int_range 0 6);
          map2 (fun i v -> Db.Op.Write (i, v)) (int_range 0 6) (int_range 0 99);
        ])
  in
  QCheck2.Test.make ~name:"writes equals the two-table version" ~count:500
    QCheck2.Gen.(list_size (int_range 1 25) op)
    (fun ops ->
      let tx = Db.Transaction.make ~id:1 ~client:0 ops in
      Db.Transaction.writes tx = two_table_writes tx)

(* ---- Lock_table ---- *)

let test_locks_shared_compatible () =
  let lt = Db.Lock_table.create () in
  let granted = ref [] in
  let acq tx mode =
    Db.Lock_table.acquire lt ~tx ~item:1 ~mode ~granted:(fun () -> granted := tx :: !granted)
  in
  check_bool "t1 shared ok" true (acq 1 Db.Lock_table.Shared = `Ok);
  check_bool "t2 shared ok" true (acq 2 Db.Lock_table.Shared = `Ok);
  Alcotest.(check (list int)) "both granted" [ 2; 1 ] !granted

let test_locks_exclusive_blocks () =
  let lt = Db.Lock_table.create () in
  let order = ref [] in
  ignore
    (Db.Lock_table.acquire lt ~tx:1 ~item:1 ~mode:Db.Lock_table.Exclusive ~granted:(fun () ->
         order := 1 :: !order));
  ignore
    (Db.Lock_table.acquire lt ~tx:2 ~item:1 ~mode:Db.Lock_table.Exclusive ~granted:(fun () ->
         order := 2 :: !order));
  Alcotest.(check (list int)) "only t1 granted" [ 1 ] !order;
  check_int "one waiting" 1 (Db.Lock_table.waiting lt);
  Db.Lock_table.release_all lt ~tx:1;
  Alcotest.(check (list int)) "t2 granted on release" [ 2; 1 ] !order;
  check_int "no waiters" 0 (Db.Lock_table.waiting lt)

let test_locks_upgrade_sole_holder () =
  let lt = Db.Lock_table.create () in
  let upgraded = ref false in
  ignore (Db.Lock_table.acquire lt ~tx:1 ~item:1 ~mode:Db.Lock_table.Shared ~granted:(fun () -> ()));
  ignore
    (Db.Lock_table.acquire lt ~tx:1 ~item:1 ~mode:Db.Lock_table.Exclusive ~granted:(fun () ->
         upgraded := true));
  check_bool "upgrade granted in place" true !upgraded

let test_locks_deadlock_detected () =
  let lt = Db.Lock_table.create () in
  ignore (Db.Lock_table.acquire lt ~tx:1 ~item:1 ~mode:Db.Lock_table.Exclusive ~granted:(fun () -> ()));
  ignore (Db.Lock_table.acquire lt ~tx:2 ~item:2 ~mode:Db.Lock_table.Exclusive ~granted:(fun () -> ()));
  (* t1 waits for item 2 (held by t2); then t2 requesting item 1 closes the
     cycle. *)
  check_bool "t1 queues" true
    (Db.Lock_table.acquire lt ~tx:1 ~item:2 ~mode:Db.Lock_table.Exclusive ~granted:(fun () -> ())
     = `Ok);
  check_bool "t2 gets deadlock" true
    (Db.Lock_table.acquire lt ~tx:2 ~item:1 ~mode:Db.Lock_table.Exclusive ~granted:(fun () -> ())
     = `Deadlock);
  check_int "counted" 1 (Db.Lock_table.deadlocks_detected lt);
  (* Victim aborts: t1's queued request must then be granted. *)
  let t1_got_2 = ref false in
  ignore t1_got_2;
  Db.Lock_table.release_all lt ~tx:2;
  check_bool "t1 now holds item 2" true (Db.Lock_table.holds lt ~tx:1 ~item:2)

let test_locks_fifo_ordering () =
  let lt = Db.Lock_table.create () in
  let order = ref [] in
  let acq tx =
    ignore
      (Db.Lock_table.acquire lt ~tx ~item:9 ~mode:Db.Lock_table.Exclusive ~granted:(fun () ->
           order := tx :: !order))
  in
  acq 1;
  acq 2;
  acq 3;
  Db.Lock_table.release_all lt ~tx:1;
  Db.Lock_table.release_all lt ~tx:2;
  Db.Lock_table.release_all lt ~tx:3;
  Alcotest.(check (list int)) "fifo grants" [ 3; 2; 1 ] !order

(* ---- Certifier ---- *)

let ws ~id ~reads ~writes =
  {
    Db.Transaction.tx_id = id;
    ws_client = 0;
    read_items = reads;
    write_values = List.map (fun i -> (i, id)) writes;
  }

let test_certifier_no_conflict_commits () =
  let c = Db.Certifier.create () in
  let start = Db.Certifier.current_version c in
  check_bool "commits" true
    (Db.Certifier.decision_equal Db.Certifier.Commit
       (Db.Certifier.certify c ~start ~ws:(ws ~id:1 ~reads:[ 1; 2 ] ~writes:[ 3 ])));
  check_int "version bumped" 1 (Db.Certifier.current_version c);
  check_int "commits counted" 1 (Db.Certifier.commits c)

let test_certifier_stale_read_aborts () =
  let c = Db.Certifier.create () in
  let t2_start = Db.Certifier.current_version c in
  (* t1 commits a write of item 7 after t2's snapshot. *)
  ignore (Db.Certifier.certify c ~start:0 ~ws:(ws ~id:1 ~reads:[] ~writes:[ 7 ]));
  check_bool "t2 aborts" true
    (Db.Certifier.decision_equal Db.Certifier.Abort
       (Db.Certifier.certify c ~start:t2_start ~ws:(ws ~id:2 ~reads:[ 7 ] ~writes:[ 9 ])));
  check_int "aborts counted" 1 (Db.Certifier.aborts c);
  (* The aborted writeset must not have recorded its writes. *)
  Alcotest.(check (option int)) "no write recorded" None (Db.Certifier.last_writer c 9)

let test_certifier_write_write_no_abort () =
  (* Pure write-write overlaps do not abort under backward validation of
     reads (writes are applied in delivery order on every server). *)
  let c = Db.Certifier.create () in
  ignore (Db.Certifier.certify c ~start:0 ~ws:(ws ~id:1 ~reads:[] ~writes:[ 5 ]));
  check_bool "blind write commits" true
    (Db.Certifier.decision_equal Db.Certifier.Commit
       (Db.Certifier.certify c ~start:0 ~ws:(ws ~id:2 ~reads:[] ~writes:[ 5 ])))

let test_certifier_determinism_across_replicas () =
  (* Two replicas certifying the same sequence reach the same decisions. *)
  let sequence =
    [ (0, ws ~id:1 ~reads:[ 1 ] ~writes:[ 2 ]); (0, ws ~id:2 ~reads:[ 2 ] ~writes:[ 3 ]);
      (1, ws ~id:3 ~reads:[ 3 ] ~writes:[ 1 ]); (0, ws ~id:4 ~reads:[ 9 ] ~writes:[ 9 ]) ]
  in
  let run () =
    let c = Db.Certifier.create () in
    List.map (fun (start, w) -> Db.Certifier.certify c ~start ~ws:w) sequence
  in
  let a = run () and b = run () in
  check_bool "same decisions" true (List.for_all2 Db.Certifier.decision_equal a b)

let prop_certifier_admits_only_serialisable_histories =
  (* Drive the certifier with random writesets and snapshots, then validate
     its commit log independently: a committed transaction must not have
     read any item written by a transaction that committed after its
     snapshot. This is the definition of backward validation, checked from
     the outside. *)
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (triple (int_range 0 8) (* snapshot lag *)
           (list_size (int_range 0 4) (int_range 0 20)) (* reads *)
           (list_size (int_range 0 4) (int_range 0 20)) (* writes *)))
  in
  QCheck2.Test.make ~name:"certifier admits only serialisable histories" ~count:200 gen
    (fun specs ->
      let c = Db.Certifier.create () in
      (* committed log: (version, write items) *)
      let log = ref [] in
      let ok = ref true in
      List.iteri
        (fun i (lag, reads, write_items) ->
          let reads = List.sort_uniq compare reads in
          let write_items = List.sort_uniq compare write_items in
          let start = max 0 (Db.Certifier.current_version c - lag) in
          let ws =
            {
              Db.Transaction.tx_id = i;
              ws_client = 0;
              read_items = reads;
              write_values = List.map (fun it -> (it, i)) write_items;
            }
          in
          match Db.Certifier.certify c ~start ~ws with
          | Db.Certifier.Commit ->
            let version = Db.Certifier.current_version c in
            (* Independent validation against the commit log. *)
            let stale =
              List.exists
                (fun (v, written) ->
                  v > start && v < version && List.exists (fun r -> List.mem r written) reads)
                !log
            in
            if stale then ok := false;
            log := (version, write_items) :: !log
          | Db.Certifier.Abort ->
            (* An abort must be justified: some committed writer after the
               snapshot intersects the read set. *)
            let justified =
              List.exists
                (fun (v, written) ->
                  v > start && List.exists (fun r -> List.mem r written) reads)
                !log
            in
            if not justified then ok := false)
        specs;
      !ok)

(* The certifier before it became a dense window: a polymorphic [Hashtbl]
   from item to last-writing version. The reference the window must match
   decision for decision and export for export. *)
module Hashtbl_certifier = struct
  type t = {
    mutable version : int;
    last_written : (int, int) Hashtbl.t;
    mutable commits : int;
    mutable aborts : int;
  }

  let create () = { version = 0; last_written = Hashtbl.create 1024; commits = 0; aborts = 0 }

  let certify c ~start ~ws =
    let stale item =
      match Hashtbl.find_opt c.last_written item with Some v -> v > start | None -> false
    in
    if List.exists stale ws.Db.Transaction.read_items then begin
      c.aborts <- c.aborts + 1;
      Db.Certifier.Abort
    end
    else begin
      c.version <- c.version + 1;
      List.iter
        (fun (item, _) -> Hashtbl.replace c.last_written item c.version)
        ws.Db.Transaction.write_values;
      c.commits <- c.commits + 1;
      Db.Certifier.Commit
    end

  let reset c =
    c.version <- 0;
    Hashtbl.reset c.last_written;
    c.commits <- 0;
    c.aborts <- 0

  let export c =
    ( c.version,
      Analysis.Det_tbl.fold ~cmp:Int.compare (fun item v acc -> (item, v) :: acc) c.last_written []
    )

  let import c ~version ~bindings =
    reset c;
    c.version <- version;
    List.iter (fun (item, v) -> Hashtbl.replace c.last_written item v) bindings

  let note_commit c ~write_items =
    c.version <- c.version + 1;
    List.iter (fun item -> Hashtbl.replace c.last_written item c.version) write_items
end

type cert_op =
  | Cert_certify of int * int list * int list  (** snapshot lag, reads, writes *)
  | Cert_note_commit of int list
  | Cert_reset
  | Cert_last_writer of int
  | Cert_transfer  (** freeze, then thaw into a fresh certifier *)

let prop_certifier_matches_hashtbl_model =
  (* Items come from two far-apart clusters and the first write lands in
     the high one, so the window must grow downwards as well as upwards. *)
  let item = QCheck2.Gen.(oneof [ int_range 0 30; int_range 9_000 9_030 ]) in
  let items = QCheck2.Gen.(list_size (int_range 0 5) item) in
  let op =
    QCheck2.Gen.(
      frequency
        [
          (6, map3 (fun lag r w -> Cert_certify (lag, r, w)) (int_range 0 6) items items);
          (2, map (fun w -> Cert_note_commit w) items);
          (1, pure Cert_reset);
          (2, map (fun i -> Cert_last_writer i) (oneof [ item; int_range 0 10_000 ]));
          (1, pure Cert_transfer);
        ])
  in
  let gen = QCheck2.Gen.(pair (int_range 9_000 9_030) (list_size (int_range 1 80) op)) in
  QCheck2.Test.make ~name:"certifier window matches the hashtable certifier" ~count:300 gen
    (fun (first, ops) ->
      let c = ref (Db.Certifier.create ()) and m = ref (Hashtbl_certifier.create ()) in
      let same_state () =
        Db.Certifier.current_version !c = !m.Hashtbl_certifier.version
        && Db.Certifier.commits !c = !m.Hashtbl_certifier.commits
        && Db.Certifier.aborts !c = !m.Hashtbl_certifier.aborts
        && Db.Certifier.export !c = Hashtbl_certifier.export !m
      in
      let step = function
        | Cert_certify (lag, reads, writes) ->
          let start = max 0 (Db.Certifier.current_version !c - lag) in
          let ws =
            {
              Db.Transaction.tx_id = 0;
              ws_client = 0;
              read_items = reads;
              write_values = List.map (fun i -> (i, 0)) writes;
            }
          in
          Db.Certifier.decision_equal (Db.Certifier.certify !c ~start ~ws)
            (Hashtbl_certifier.certify !m ~start ~ws)
        | Cert_note_commit write_items ->
          Db.Certifier.note_commit !c ~write_items;
          Hashtbl_certifier.note_commit !m ~write_items;
          true
        | Cert_reset ->
          Db.Certifier.reset !c;
          Hashtbl_certifier.reset !m;
          true
        | Cert_last_writer i ->
          Option.equal Int.equal (Db.Certifier.last_writer !c i)
            (Hashtbl.find_opt !m.Hashtbl_certifier.last_written i)
        | Cert_transfer ->
          let frozen = Db.Certifier.freeze !c in
          let m_version, m_bindings = Hashtbl_certifier.export !m in
          c := Db.Certifier.create ();
          Db.Certifier.thaw !c frozen;
          m := Hashtbl_certifier.create ();
          Hashtbl_certifier.import !m ~version:m_version ~bindings:m_bindings;
          true
      in
      List.for_all (fun op -> step op && same_state ()) (Cert_note_commit [ first ] :: ops))

let test_certifier_rejects_negative_items () =
  let c = Db.Certifier.create () in
  let raises name f =
    Alcotest.check_raises name (Invalid_argument "Certifier: negative item") (fun () ->
        ignore (f ()))
  in
  let certify ~reads ~writes = Db.Certifier.certify c ~start:0 ~ws:(ws ~id:1 ~reads ~writes) in
  raises "certify write" (fun () -> certify ~reads:[] ~writes:[ -1 ]);
  raises "certify read" (fun () -> certify ~reads:[ -3 ] ~writes:[]);
  raises "check_only" (fun () -> Db.Certifier.check_only c ~start:0 ~read_items:[ -2 ]);
  raises "note_commit" (fun () -> Db.Certifier.note_commit c ~write_items:[ 4; -5 ]);
  raises "last_writer" (fun () -> Db.Certifier.last_writer c (-1))

let prop_lock_table_exclusion =
  (* Random acquire/release schedules: at no point may an exclusive holder
     coexist with any other holder on the same item, and when every
     transaction has released, nothing is left waiting. *)
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (triple (int_range 0 5) (* tx *) (int_range 0 3) (* item *) bool (* exclusive? *)))
  in
  QCheck2.Test.make ~name:"lock table mutual exclusion and drainage" ~count:200 gen
    (fun ops ->
      let lt = Db.Lock_table.create () in
      (* holders.(item) = list of (tx, exclusive) granted and not released *)
      let holders = Array.make 4 [] in
      let ok = ref true in
      let txs = List.sort_uniq compare (List.map (fun (t, _, _) -> t) ops) in
      List.iter
        (fun (tx, item, exclusive) ->
          let mode = if exclusive then Db.Lock_table.Exclusive else Db.Lock_table.Shared in
          let granted () =
            let others = List.filter (fun (t, _) -> t <> tx) holders.(item) in
            if exclusive && others <> [] then ok := false;
            if (not exclusive) && List.exists snd others then ok := false;
            holders.(item) <- (tx, exclusive) :: List.remove_assoc tx holders.(item)
          in
          match Db.Lock_table.acquire lt ~tx ~item ~mode ~granted with
          | `Ok -> ()
          | `Deadlock -> begin
            (* The victim gives up everything, like a real abort. Update
               the model first: release_all grants waiters synchronously. *)
            Array.iteri
              (fun i hs -> holders.(i) <- List.filter (fun (t, _) -> t <> tx) hs)
              holders;
            Db.Lock_table.release_all lt ~tx
          end)
        ops;
      (* Everyone finishes: all queues must drain. *)
      List.iter
        (fun tx ->
          Array.iteri (fun i hs -> holders.(i) <- List.filter (fun (t, _) -> t <> tx) hs) holders;
          Db.Lock_table.release_all lt ~tx)
        txs;
      !ok && Db.Lock_table.waiting lt = 0)

(* ---- Testable transactions ---- *)

let test_testable_dedup () =
  let t = Db.Testable_tx.create () in
  check_bool "fresh" false (Db.Testable_tx.already_processed t 1);
  Db.Testable_tx.record t 1 Db.Testable_tx.Committed;
  check_bool "processed" true (Db.Testable_tx.already_processed t 1);
  Db.Testable_tx.record t 1 Db.Testable_tx.Committed (* idempotent *);
  check_int "count" 1 (Db.Testable_tx.count t);
  Alcotest.check_raises "conflicting outcome"
    (Invalid_argument "Testable_tx.record: conflicting outcome for T1") (fun () ->
      Db.Testable_tx.record t 1 Db.Testable_tx.Aborted)

(* The table before it became byte pages: a polymorphic [Hashtbl] from id
   to outcome, raising on a conflicting outcome. The reference the pages
   must match answer for answer. *)
module Hashtbl_testable = struct
  let record t id outcome =
    match Hashtbl.find_opt t id with
    | None -> Hashtbl.replace t id outcome
    | Some prior ->
      if not (Db.Testable_tx.outcome_equal prior outcome) then
        invalid_arg (Printf.sprintf "Testable_tx.record: conflicting outcome for T%d" id)

  let committed_count t =
    Hashtbl.fold
      (fun _ outcome n -> match outcome with Db.Testable_tx.Committed -> n + 1 | Aborted -> n)
      t 0
end

type testable_op =
  | Tt_record of int * Db.Testable_tx.outcome
  | Tt_find of int
  | Tt_reset
  | Tt_thaw_fresh  (** freeze, then thaw into a new table *)
  | Tt_thaw_onto of (int * Db.Testable_tx.outcome) list
      (** freeze, then thaw into a new table already holding these *)

let prop_testable_matches_hashtbl_model =
  (* Ids from every range the system uses: the workload's dense block
     (across the 4096-id page boundary), sharded sub-transactions below 0
     (across a negative boundary), convergence probes [1_000_000 + g] and
     leader-kill probes [1_000_000_000 + k]. Narrow ranges make repeats,
     and so conflicts, common. *)
  let id =
    QCheck2.Gen.(
      oneof
        [
          int_range 0 40;
          int_range 4_090 4_100;
          int_range 0 12_000;
          int_range (-40) (-1);
          int_range (-4_100) (-4_090);
          map (fun g -> 1_000_000 + g) (int_range 0 3);
          map (fun k -> 1_000_000_000 + k) (int_range 0 40);
        ])
  in
  let outcome = QCheck2.Gen.(map (fun c -> if c then Db.Testable_tx.Committed else Aborted) bool) in
  let op =
    QCheck2.Gen.(
      frequency
        [
          (8, map2 (fun i o -> Tt_record (i, o)) id outcome);
          (4, map (fun i -> Tt_find i) id);
          (1, pure Tt_reset);
          (1, pure Tt_thaw_fresh);
          (1, map (fun l -> Tt_thaw_onto l) (list_size (int_range 1 5) (pair id outcome)));
        ])
  in
  QCheck2.Test.make ~name:"testable pages match the hashtable table" ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) op)
    (fun ops ->
      let t = ref (Db.Testable_tx.create ()) and m = ref (Hashtbl.create 16) in
      let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
      let agree id =
        Option.equal Db.Testable_tx.outcome_equal (Db.Testable_tx.find !t id)
          (Hashtbl.find_opt !m id)
        && Db.Testable_tx.already_processed !t id = Hashtbl.mem !m id
      in
      (* A thaw replaces the target's contents: the model is unchanged. *)
      let thaw_into target =
        Db.Testable_tx.thaw target (Db.Testable_tx.freeze !t);
        t := target
      in
      let step = function
        | Tt_record (id, o) ->
          let raised = raises (fun () -> Db.Testable_tx.record !t id o) in
          raised = raises (fun () -> Hashtbl_testable.record !m id o) && agree id
        | Tt_find id -> agree id
        | Tt_reset ->
          Db.Testable_tx.reset !t;
          Hashtbl.reset !m;
          true
        | Tt_thaw_fresh ->
          thaw_into (Db.Testable_tx.create ());
          true
        | Tt_thaw_onto held ->
          let target = Db.Testable_tx.create () in
          List.iter
            (fun (id, o) ->
              if not (Db.Testable_tx.already_processed target id) then
                Db.Testable_tx.record target id o)
            held;
          thaw_into target;
          List.for_all (fun (id, _) -> agree id) held
      in
      List.for_all
        (fun op ->
          step op
          && Db.Testable_tx.count !t = Hashtbl.length !m
          && Db.Testable_tx.committed_count !t = Hashtbl_testable.committed_count !m)
        ops
      && Hashtbl.fold (fun id _ ok -> ok && agree id) !m true)

let test_thaw_copies_frozen_state () =
  (* A duplicated Join_state can reach a recovering joiner twice: what the
     replica does after installing the first copy must not reach the
     second, and what the donor does after answering must reach neither. *)
  let uid seq = { Gcs.Uid.origin = 0; incarnation = 1; seq } in
  let view = Db.Testable_tx.create ()
  and cert = Db.Certifier.create ()
  and uids = Gcs.Uid_set.create () in
  List.iter (fun id -> Db.Testable_tx.record view id Db.Testable_tx.Committed) [ 1; 2; 5_000; -3 ];
  Db.Certifier.note_commit cert ~write_items:[ 10; 20 ];
  List.iter (fun seq -> ignore (Gcs.Uid_set.add uids (uid seq))) [ 0; 1; 3 ];
  let frozen_view = Db.Testable_tx.freeze view
  and frozen_cert = Db.Certifier.freeze cert
  and runs = Gcs.Uid_set.export uids in
  let donor_cert = Db.Certifier.export cert in
  Db.Testable_tx.record view 3 Db.Testable_tx.Aborted;
  Db.Certifier.note_commit cert ~write_items:[ 20 ];
  ignore (Gcs.Uid_set.add uids (uid 2));
  let install () =
    let v = Db.Testable_tx.create ()
    and c = Db.Certifier.create ()
    and u = Gcs.Uid_set.create () in
    Db.Testable_tx.thaw v frozen_view;
    Db.Certifier.thaw c frozen_cert;
    Gcs.Uid_set.import u runs;
    (v, c, u)
  in
  let v, c, u = install () in
  (* Writes inside the thawed pages and window, and the uid gap. *)
  Db.Testable_tx.record v 4 Db.Testable_tx.Committed;
  Db.Testable_tx.record v 5_001 Db.Testable_tx.Aborted;
  Db.Certifier.note_commit c ~write_items:[ 10; 20 ];
  ignore (Gcs.Uid_set.add u (uid 2));
  let v, c, u = install () in
  check_int "view count" 4 (Db.Testable_tx.count v);
  check_int "view commits" 4 (Db.Testable_tx.committed_count v);
  List.iter
    (fun id ->
      check_bool (Printf.sprintf "T%d unknown" id) false (Db.Testable_tx.already_processed v id))
    [ 3; 4; 5_001 ];
  check_bool "T5000 committed" true
    (Db.Testable_tx.find v 5_000 = Some Db.Testable_tx.Committed);
  check_bool "certifier state is the donor's" true (Db.Certifier.export c = donor_cert);
  check_bool "uid runs are the donor's" true (Gcs.Uid_set.export u = runs)

(* ---- Db_engine ---- *)

type server = {
  engine : Sim.Engine.t;
  process : Sim.Process.t;
  db : Db.Db_engine.t;
}

let make_server ?(config = Db.Db_engine.table4_config) () =
  let engine = Sim.Engine.create () in
  let process = Sim.Process.create engine ~name:"S0" in
  let cpus = Sim.Resource.create engine ~name:"cpu" ~servers:2 in
  let disks = Sim.Resource.create engine ~name:"disk" ~servers:2 in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let db = Db.Db_engine.create engine ~process ~cpus ~disks ~rng config in
  { engine; process; db }

let always_miss =
  { Db.Db_engine.table4_config with buffer = Store.Buffer_pool.Probabilistic 0. }

let always_hit =
  { Db.Db_engine.table4_config with buffer = Store.Buffer_pool.Probabilistic 1. }

let test_engine_read_hit_is_free () =
  let s = make_server ~config:always_hit () in
  let got = ref (-1) in
  Db.Db_engine.read s.db ~item:5 ~k:(fun v -> got := v);
  check_int "immediate" 0 !got;
  check_int "no time passed" 0 (Sim.Sim_time.to_us (Sim.Engine.now s.engine))

let test_engine_read_miss_costs_io () =
  let s = make_server ~config:always_miss () in
  let done_at = ref 0 in
  Db.Db_engine.read s.db ~item:5 ~k:(fun _ ->
      done_at := Sim.Sim_time.to_us (Sim.Engine.now s.engine));
  Sim.Engine.run s.engine;
  (* 0.4ms CPU + 4..12ms disk *)
  check_bool "took cpu+disk time" true (!done_at >= 4_400 && !done_at <= 12_400)

let test_engine_install_and_value () =
  let s = make_server () in
  Db.Db_engine.install_writes s.db [ (3, 30); (4, 40) ];
  check_int "installed" 30 (Db.Db_engine.value s.db 3);
  check_int "installed" 40 (Db.Db_engine.value s.db 4)

let test_engine_log_commit_durable () =
  let s = make_server () in
  let durable = ref false in
  Db.Db_engine.log_commit s.db ~tx:7 ~decision:Db.Certifier.Commit ~writes:[ (1, 10) ]
    ~k:(fun () -> durable := true);
  check_bool "not yet" false !durable;
  Sim.Engine.run s.engine;
  check_bool "durable" true !durable;
  check_int "one commit on disk" 1 (Db.Db_engine.durable_commits s.db)

let test_engine_recover_replays_wal () =
  let s = make_server () in
  Db.Db_engine.install_writes s.db [ (1, 10); (2, 20) ];
  Db.Db_engine.log_commit_quiet s.db ~tx:1 ~decision:Db.Certifier.Commit ~writes:[ (1, 10) ];
  Db.Db_engine.log_commit_quiet s.db ~tx:2 ~decision:Db.Certifier.Commit ~writes:[ (2, 20) ];
  Sim.Engine.run s.engine (* both records durable *);
  (* Unlogged in-memory write that must vanish. *)
  Db.Db_engine.install_writes s.db [ (3, 30) ];
  Sim.Process.kill s.process;
  Sim.Process.restart s.process;
  let recovered = ref false in
  Db.Db_engine.recover s.db ~k:(fun () -> recovered := true);
  Sim.Engine.run s.engine;
  check_bool "recovered" true !recovered;
  check_int "logged write survives" 10 (Db.Db_engine.value s.db 1);
  check_int "logged write survives" 20 (Db.Db_engine.value s.db 2);
  check_int "unlogged write lost" 0 (Db.Db_engine.value s.db 3);
  check_bool "testable rebuilt" true (Db.Testable_tx.already_processed (Db.Db_engine.testable s.db) 1)

let test_engine_crash_loses_pending_log () =
  let s = make_server () in
  Db.Db_engine.log_commit_quiet s.db ~tx:1 ~decision:Db.Certifier.Commit ~writes:[ (1, 10) ];
  (* Crash before the flush completes. *)
  Sim.Engine.schedule s.engine ~delay:(ms 1.) (fun () -> Sim.Process.kill s.process);
  Sim.Engine.run s.engine;
  check_int "nothing durable" 0 (Db.Db_engine.durable_commits s.db)

let test_engine_write_io_parallel_and_async () =
  let s = make_server () in
  let sync_done = ref 0 and async_done = ref 0 in
  Db.Db_engine.write_io s.db ~count:4 ~factor:1.0 ~k:(fun () ->
      sync_done := Sim.Sim_time.to_us (Sim.Engine.now s.engine));
  Sim.Engine.run s.engine;
  let e2 = make_server () in
  Db.Db_engine.write_io e2.db ~count:4 ~factor:(Db.Db_engine.async_factor e2.db) ~k:(fun () ->
      async_done := Sim.Sim_time.to_us (Sim.Engine.now e2.engine));
  Sim.Engine.run e2.engine;
  check_bool "sync writes took time" true (!sync_done > 0);
  check_bool "async factor speeds writes" true (!async_done < !sync_done)

let test_engine_snapshot_roundtrip () =
  let s = make_server () in
  Db.Db_engine.install_writes s.db [ (1, 11); (2, 22); (3, min_int); (4, max_int) ];
  let snap = Db.Db_engine.values_snapshot s.db in
  (* A write after the snapshot stays out of it. *)
  Db.Db_engine.install_writes s.db [ (1, 12) ];
  let s2 = make_server () in
  Db.Db_engine.install_snapshot s2.db snap;
  check_int "transferred" 11 (Db.Db_engine.value s2.db 1);
  check_int "transferred" 22 (Db.Db_engine.value s2.db 2);
  check_int "min_int transferred" min_int (Db.Db_engine.value s2.db 3);
  check_int "max_int transferred" max_int (Db.Db_engine.value s2.db 4);
  let v = Db.Db_engine.values s2.db in
  check_int "values has every item" (Db.Db_engine.config s2.db).Db.Db_engine.items (Array.length v);
  check_bool "values agrees with value" true
    (Array.for_all Fun.id (Array.mapi (fun i x -> x = Db.Db_engine.value s2.db i) v));
  check_int "the donor moved on" 12 (Db.Db_engine.value s.db 1)

let () =
  Alcotest.run "db"
    [
      ( "transaction",
        [
          Alcotest.test_case "op basics" `Quick test_op_basics;
          Alcotest.test_case "read/write sets" `Quick test_transaction_sets;
          Alcotest.test_case "read-only" `Quick test_transaction_read_only;
          Alcotest.test_case "empty rejected" `Quick test_transaction_empty_rejected;
          QCheck_alcotest.to_alcotest prop_writes_match_two_table_version;
        ] );
      ( "lock_table",
        [
          Alcotest.test_case "shared compatible" `Quick test_locks_shared_compatible;
          Alcotest.test_case "exclusive blocks" `Quick test_locks_exclusive_blocks;
          Alcotest.test_case "upgrade in place" `Quick test_locks_upgrade_sole_holder;
          Alcotest.test_case "deadlock detected" `Quick test_locks_deadlock_detected;
          Alcotest.test_case "fifo ordering" `Quick test_locks_fifo_ordering;
        ] );
      ( "certifier",
        Alcotest.test_case "no conflict commits" `Quick test_certifier_no_conflict_commits
        :: Alcotest.test_case "stale read aborts" `Quick test_certifier_stale_read_aborts
        :: Alcotest.test_case "blind writes commit" `Quick test_certifier_write_write_no_abort
        :: Alcotest.test_case "deterministic" `Quick test_certifier_determinism_across_replicas
        :: Alcotest.test_case "negative items rejected" `Quick test_certifier_rejects_negative_items
        :: List.map (fun t -> QCheck_alcotest.to_alcotest t)
             [
               prop_certifier_admits_only_serialisable_histories;
               prop_certifier_matches_hashtbl_model;
               prop_lock_table_exclusion;
             ] );
      ( "testable_tx",
        [
          Alcotest.test_case "dedup" `Quick test_testable_dedup;
          QCheck_alcotest.to_alcotest prop_testable_matches_hashtbl_model;
          Alcotest.test_case "thaw copies frozen state" `Quick test_thaw_copies_frozen_state;
        ] );
      ( "db_engine",
        [
          Alcotest.test_case "hit is free" `Quick test_engine_read_hit_is_free;
          Alcotest.test_case "miss costs io" `Quick test_engine_read_miss_costs_io;
          Alcotest.test_case "install and value" `Quick test_engine_install_and_value;
          Alcotest.test_case "log commit durable" `Quick test_engine_log_commit_durable;
          Alcotest.test_case "recover replays wal" `Quick test_engine_recover_replays_wal;
          Alcotest.test_case "crash loses pending log" `Quick test_engine_crash_loses_pending_log;
          Alcotest.test_case "write io sync vs async" `Quick test_engine_write_io_parallel_and_async;
          Alcotest.test_case "snapshot roundtrip" `Quick test_engine_snapshot_roundtrip;
        ] );
    ]
