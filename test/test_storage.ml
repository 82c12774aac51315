(* The storage-fault nemesis and the durability oracle.

   Property tests pin the framed WAL encoding (a random truncation or a
   single flipped byte is always detected, never misparsed — and the
   skip-checksum ablation shows the CRC is what does the detecting); unit
   tests drive the stable-storage fault hooks directly (lying fsync,
   disk-full parking, gray-failure write factor, tamper/last_durable);
   replay tests re-certify the storage corpus and the subsumption cases
   where a later fault physically destroys the evidence of an earlier
   one; the directed scenario families and the skip-checksum mutation
   rediscovery exercise the explorer's storage mode end to end. *)

open Groupsafe
module E = Check.Explorer
module S = Check.Schedule

let ms = Sim.Sim_time.span_ms
let us = Sim.Sim_time.span_us
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Wal_codec properties ---- *)

let record_gen =
  QCheck2.Gen.(
    let* seq = int_range 0 100_000 in
    let* tx = int_range 0 100_000 in
    let* commit = bool in
    let* writes = list_size (int_range 0 8) (pair (int_range 0 9_999) (int_range 0 1_000_000)) in
    return (seq, tx, (if commit then Db.Certifier.Commit else Db.Certifier.Abort), writes))

let encode (seq, tx, decision, writes) = Db.Wal_codec.encode ~seq ~tx ~decision ~writes

let prop_round_trip =
  QCheck2.Test.make ~name:"encode/decode round-trips" ~count:300 record_gen
    (fun ((seq, tx, decision, writes) as r) ->
      match Db.Wal_codec.decode (encode r) with
      | Ok d ->
        d.Db.Wal_codec.seq = seq && d.Db.Wal_codec.tx = tx
        && d.Db.Wal_codec.decision = decision
        && d.Db.Wal_codec.writes = writes
      | Error _ -> false)

let prop_truncation_detected =
  QCheck2.Test.make ~name:"any truncation is a torn frame, never a parse" ~count:300
    QCheck2.Gen.(pair record_gen (float_range 0. 1.))
    (fun (r, frac) ->
      let frame = encode r in
      let cut = int_of_float (frac *. float_of_int (String.length frame - 1)) in
      match Db.Wal_codec.decode (String.sub frame 0 cut) with
      | Error Db.Wal_codec.Torn -> true
      | Ok _ | Error _ -> false)

let prop_flip_detected =
  QCheck2.Test.make ~name:"any single-byte flip is detected, never misparsed" ~count:500
    QCheck2.Gen.(triple record_gen (float_range 0. 1.) (int_range 1 255))
    (fun (r, pos_frac, mask) ->
      let frame = Bytes.of_string (encode r) in
      let pos = int_of_float (pos_frac *. float_of_int (Bytes.length frame - 1)) in
      Bytes.set frame pos (Char.chr (Char.code (Bytes.get frame pos) lxor mask));
      match Db.Wal_codec.decode (Bytes.to_string frame) with
      | Error _ -> true
      | Ok _ -> false)

(* The ablation that justifies the checksum: flip a payload byte the
   structural checks cannot see (the transaction id) and an unverified
   decode happily misparses it — exactly what [break_skip_checksum]
   re-enables and the durability oracle must catch. *)
let prop_skip_checksum_misparses =
  QCheck2.Test.make ~name:"without the checksum a tx-id flip misparses" ~count:200
    QCheck2.Gen.(triple record_gen (int_range 16 23) (int_range 1 255))
    (fun ((_seq, tx, decision, _writes) as r, pos, mask) ->
      let frame = Bytes.of_string (encode r) in
      Bytes.set frame pos (Char.chr (Char.code (Bytes.get frame pos) lxor mask));
      let flipped = Bytes.to_string frame in
      let detected =
        match Db.Wal_codec.decode flipped with Error _ -> true | Ok _ -> false
      in
      let misparsed =
        match Db.Wal_codec.decode ~verify:false flipped with
        | Ok d -> d.Db.Wal_codec.tx <> tx && d.Db.Wal_codec.decision = decision
        | Error _ -> false
      in
      (* Bit 63 of the field lies outside OCaml's 63-bit int, so flipping it
         alone decodes to the same id: the checksum still catches it, but
         there is no misparse to see. *)
      detected && (misparsed || (pos = 23 && mask = 0x80)))

(* Encode and decode share one [crc32], so a wrong table would still pass
   the round-trip and flip properties above. Pin the checksum itself: the
   CRC-32/IEEE check value, and agreement with the bitwise definition. *)
let bitwise_crc32 bytes ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get bytes i);
    for _ = 0 to 7 do
      let c = !crc in
      crc := if c land 1 = 1 then (c lsr 1) lxor 0xEDB88320 else c lsr 1
    done
  done;
  (!crc lxor 0xFFFFFFFF) land 0xFFFFFFFF

let test_crc32_check_value () =
  let b = Bytes.of_string "123456789" in
  check_int "CRC-32/IEEE check value" 0xCBF43926 (Db.Wal_codec.crc32 b ~pos:0 ~len:9);
  check_int "empty input" 0 (Db.Wal_codec.crc32 b ~pos:3 ~len:0)

let prop_crc32_matches_bitwise =
  QCheck2.Test.make ~name:"table CRC-32 equals the bitwise loop" ~count:500
    QCheck2.Gen.(triple (string_size (int_range 0 300)) nat nat)
    (fun (s, a, b) ->
      let bytes = Bytes.of_string s in
      let n = Bytes.length bytes in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      Db.Wal_codec.crc32 bytes ~pos ~len = bitwise_crc32 bytes ~pos ~len
      && Db.Wal_codec.crc32 bytes ~pos:0 ~len:n = bitwise_crc32 bytes ~pos:0 ~len:n)

(* The table CRC reads two 32-bit words per 8-byte step from [pos] and
   finishes with a byte loop over the last [len mod 8] bytes: every length
   0-64 from every start offset 0-7 covers each tail length at each
   alignment of the word reads, where the random cases above reach them
   only by chance. *)
let test_crc32_every_length_and_offset () =
  let bytes = Bytes.init 72 (fun i -> Char.chr (((i * 151) + 89) land 0xFF)) in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      check_int
        (Printf.sprintf "pos %d len %d" pos len)
        (bitwise_crc32 bytes ~pos ~len)
        (Db.Wal_codec.crc32 bytes ~pos ~len)
    done
  done

let test_scan_repairs () =
  let f i = encode (i, i, Db.Certifier.Commit, [ (i, i) ]) in
  let torn = String.sub (f 9) 0 10 in
  let records, repairs = Db.Wal_codec.scan [ f 0; f 1; f 2; torn ] in
  check_int "torn tail dropped" 3 (List.length records);
  Alcotest.(check bool) "torn tail reported" true
    (repairs = [ Db.Wal_codec.Torn_tail_truncated ]);
  let rotted = Bytes.of_string (f 1) in
  Bytes.set rotted 20 '\xff';
  let records, repairs = Db.Wal_codec.scan [ f 0; Bytes.to_string rotted; f 2 ] in
  check_int "rotted frame dropped, neighbours kept" 2 (List.length records);
  check_bool "drop reported with its sequence number" true
    (List.mem (Db.Wal_codec.Corrupt_record_dropped 1) repairs);
  check_bool "no double-reported gap" true
    (List.for_all (function Db.Wal_codec.Sequence_gap _ -> false | _ -> true) repairs);
  let _, repairs = Db.Wal_codec.scan [ f 0; f 3 ] in
  check_bool "whole-record loss is a sequence gap" true
    (List.mem (Db.Wal_codec.Sequence_gap { expected = 1; found = 3 }) repairs)

(* ---- Stable_storage fault hooks ---- *)

let log_fixture () =
  let engine = Sim.Engine.create () in
  let disk = Sim.Resource.create engine ~name:"disk" ~servers:1 in
  let log = Store.Stable_storage.create engine ~name:"wal" ~disk ~write_time:(fun () -> ms 8.) () in
  (engine, log)

let test_fsync_lie_hook () =
  let engine, log = log_fixture () in
  Store.Stable_storage.append_quiet log "honest";
  Sim.Engine.run engine;
  Store.Stable_storage.arm_fsync_lie log;
  let acked = ref false in
  Store.Stable_storage.append log "lied" ~on_durable:(fun () -> acked := true);
  Sim.Engine.run engine;
  check_bool "lied append was acknowledged" true !acked;
  check_int "and appears durable" 2 (Store.Stable_storage.durable_count log);
  check_int "acked lies counted" 1 (Store.Stable_storage.lies_acked log);
  Store.Stable_storage.crash log;
  Alcotest.(check (list string)) "crash drops only the lie" [ "honest" ]
    (Store.Stable_storage.durable_records log);
  check_int "dropped lies counted" 1 (Store.Stable_storage.lies_dropped log);
  check_bool "the crash disarms the lie" false (Store.Stable_storage.fsync_lying log)

let test_disk_full_parks_and_releases () =
  let engine, log = log_fixture () in
  Store.Stable_storage.set_full log true;
  Store.Stable_storage.append_quiet log "parked";
  Sim.Engine.run engine;
  check_int "nothing durable while full" 0 (Store.Stable_storage.durable_count log);
  check_int "append parked" 1 (Store.Stable_storage.parked_count log);
  Store.Stable_storage.set_full log false;
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "released in order once cleared" [ "parked" ]
    (Store.Stable_storage.durable_records log);
  Store.Stable_storage.set_full log true;
  Store.Stable_storage.append_quiet log "lost";
  Store.Stable_storage.crash log;
  Store.Stable_storage.set_full log false;
  Sim.Engine.run engine;
  check_int "parked records are volatile across a crash" 1
    (Store.Stable_storage.durable_count log)

let test_write_factor_slows_flushes () =
  let engine, log = log_fixture () in
  Store.Stable_storage.set_write_factor log 10.;
  let durable_at = ref 0 in
  Store.Stable_storage.append log "slow" ~on_durable:(fun () ->
      durable_at := Sim.Sim_time.to_us (Sim.Engine.now engine));
  Sim.Engine.run engine;
  check_int "10x write factor: 8ms flush takes 80ms" 80_000 !durable_at;
  Store.Stable_storage.set_write_factor log 0.5;
  let healed_at = ref 0 in
  Store.Stable_storage.append log "healed" ~on_durable:(fun () ->
      healed_at := Sim.Sim_time.to_us (Sim.Engine.now engine));
  Sim.Engine.run engine;
  check_int "factors below 1 clamp to a healthy disk" 88_000 !healed_at

let test_tamper_last () =
  let engine, log = log_fixture () in
  check_bool "nothing to tamper in an empty log" false
    (Store.Stable_storage.tamper_last log (fun s -> s));
  Store.Stable_storage.append_quiet log "old";
  Store.Stable_storage.append_quiet log "new";
  Sim.Engine.run engine;
  Alcotest.(check (option string)) "last_durable is the newest record" (Some "new")
    (Store.Stable_storage.last_durable log);
  check_bool "tamper hits it" true
    (Store.Stable_storage.tamper_last log (fun s -> String.sub s 0 1));
  Alcotest.(check (list string)) "in place, older records untouched" [ "old"; "n" ]
    (Store.Stable_storage.durable_records log)

(* ---- Replay: the storage corpus ---- *)

let corpus_dir = "storage_corpus"
let read_file path = In_channel.with_open_text path In_channel.input_all

let technique_of file name =
  match List.find_opt (fun t -> System.technique_name t = name) System.all_techniques with
  | Some t -> t
  | None -> Alcotest.fail (file ^ ": unknown technique directive " ^ name)

let break_all f sys =
  for i = 0 to System.n_servers sys - 1 do
    f sys i
  done

let verdict_of file (o : E.outcome) =
  match o.E.durability with
  | Some v -> v
  | None -> Alcotest.fail (file ^ ": durability verdict missing in storage mode")

let replay_entry file =
  let text = read_file (Filename.concat corpus_dir file) in
  let dirs = S.directives text in
  let find key = List.assoc_opt key dirs in
  let technique =
    match find "technique" with
    | Some t -> technique_of file t
    | None -> Alcotest.fail (file ^ ": missing technique directive")
  in
  let schedule =
    match S.parse text with Ok s -> s | Error e -> Alcotest.fail (file ^ ": " ^ e)
  in
  let cfg = E.default_config ~storage:true technique in
  let o = E.run cfg schedule in
  let v = verdict_of file o in
  (match find "expect" with
  | Some "clean" ->
    check_bool (file ^ ": certifies clean") false o.E.failed;
    check_bool (file ^ ": no loss at all") true (v.Check.Durability.lost = [])
  | Some "loss" ->
    (* Loss demonstrated yet permitted: the verdict reports lost
       transactions and still stays clean (flagged-but-allowed). *)
    check_bool (file ^ ": certifies clean") false o.E.failed;
    check_bool (file ^ ": acked transactions were lost") true (v.Check.Durability.lost <> []);
    check_bool (file ^ ": every loss flagged, none forbidden") true
      (v.Check.Durability.forbidden = 0 && v.Check.Durability.flagged > 0)
  | Some other -> Alcotest.fail (file ^ ": unknown expect directive " ^ other)
  | None -> Alcotest.fail (file ^ ": missing expect directive"));
  (match find "check" with
  | Some "torn-repaired" ->
    check_bool (file ^ ": a torn write fired") true (v.Check.Durability.torn_fired > 0);
    check_int (file ^ ": every tear repaired") v.Check.Durability.torn_scanned
      v.Check.Durability.torn_repaired
  | Some "corrupt-detected" ->
    check_bool (file ^ ": bit-rot injected") true (v.Check.Durability.corrupt_injected > 0);
    check_int (file ^ ": every corruption detected") v.Check.Durability.corrupt_scanned
      v.Check.Durability.corrupt_detected
  | Some other -> Alcotest.fail (file ^ ": unknown check directive " ^ other)
  | None -> ());
  match find "mutate" with
  | None -> ()
  | Some "skip-checksum" ->
    let broken =
      E.run { cfg with E.mutate = break_all System.break_skip_checksum } schedule
    in
    check_bool (file ^ ": skip-checksum re-break fails again") true broken.E.failed
  | Some other -> Alcotest.fail (file ^ ": unknown mutate directive " ^ other)

let test_corpus () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sched")
    |> List.sort compare
  in
  check_bool "corpus holds at least three schedules" true (List.length files >= 3);
  List.iter replay_entry files

(* ---- Subsumption: a later fault destroys the earlier fault's evidence.

   These are the regression tests for the oracle's bookkeeping: when the
   flipped record is itself torn away before any scan, or a second flip
   restores the original bytes, there is nothing left on disk for the
   scan to detect — the oracle must not demand a detection it made
   impossible. *)

let run_storage technique events =
  let cfg = E.default_config ~storage:true technique in
  let schedule = S.make ~servers:3 ~txs:2 ~spacing:(us 5_000) events in
  E.run cfg schedule

let test_subsumed_by_tear () =
  let o =
    run_storage
      (System.Dsm Dsm_replica.Group_safe_mode)
      [
        { S.at = ms 15.; kind = S.Corrupt_record 0 };
        { S.at = ms 16.; kind = S.Torn_write 0 };
        { S.at = ms 17.; kind = S.Crash 0 };
        { S.at = ms 30.; kind = S.Recover 0 };
      ]
  in
  let v = verdict_of "tear-subsumes-flip" o in
  check_bool "still clean: the tear consumed the flipped record" false o.E.failed;
  check_int "corruption injected" 1 v.Check.Durability.corrupt_injected;
  check_int "but excluded from the scan's obligations" 0 v.Check.Durability.corrupt_scanned;
  check_bool "the tear itself still repaired" true
    (v.Check.Durability.torn_fired > 0
    && v.Check.Durability.torn_repaired = v.Check.Durability.torn_scanned)

let test_subsumed_by_double_flip () =
  let o =
    run_storage
      (System.Dsm Dsm_replica.Group_safe_mode)
      [
        { S.at = ms 15.; kind = S.Corrupt_record 0 };
        { S.at = ms 16.; kind = S.Corrupt_record 0 };
        { S.at = ms 17.; kind = S.Crash 0 };
        { S.at = ms 30.; kind = S.Recover 0 };
      ]
  in
  let v = verdict_of "double-flip" o in
  check_bool "still clean: the second flip restored the bytes" false o.E.failed;
  check_int "both flips counted as injected" 2 v.Check.Durability.corrupt_injected;
  check_int "neither is a scan obligation" 0 v.Check.Durability.corrupt_scanned

(* ---- Amnesia rides the new vocabulary ----

   PR 1's amnesiac mutation is now a thin alias for arming
   [Wipe_wal_at_crash]; the historical scenario (2-safe survives a group
   crash, amnesiac replicas don't) must reproduce through the new fault
   path, with the wipes showing up in the durability evidence and the
   loss excused only by the total betrayal. *)
let test_amnesia_via_new_path () =
  (* 2-safe acks land around 40–58 ms (end-to-end delivery plus a forced
     log write on every replica), so the group crash waits until 80 ms
     under a stretched horizon. *)
  let events =
    [
      { S.at = ms 80.; kind = S.Crash 0 };
      { S.at = ms 80.; kind = S.Crash 1 };
      { S.at = ms 80.; kind = S.Crash 2 };
      { S.at = ms 100.; kind = S.Recover 0 };
      { S.at = ms 100.; kind = S.Recover 1 };
      { S.at = ms 100.; kind = S.Recover 2 };
    ]
  in
  let cfg =
    { (E.default_config ~storage:true (System.Dsm Dsm_replica.Two_safe_mode)) with
      E.horizon = ms 120. }
  in
  let clean = E.run cfg (S.make ~servers:3 ~txs:2 ~spacing:(us 5_000) events) in
  check_bool "2-safe survives the group crash intact" true
    ((verdict_of "amnesia-clean" clean).Check.Durability.lost = []);
  let broken =
    E.run
      { cfg with E.mutate = break_all System.break_amnesiac }
      (S.make ~servers:3 ~txs:2 ~spacing:(us 5_000) events)
  in
  let v = verdict_of "amnesia-broken" broken in
  check_bool "amnesiac replicas lose the acked transactions" true
    (v.Check.Durability.lost <> []);
  check_int "every wipe recorded through the new fault counters" 3
    v.Check.Durability.wal_wipes;
  check_bool "loss permitted only because every disk betrayed it" true
    (List.for_all
       (fun l -> l.Check.Durability.l_class = Check.Durability.Permitted_storage_betrayal)
       v.Check.Durability.lost);
  check_bool "so the verdict stays clean" false broken.E.failed

(* ---- Directed scenario families ---- *)

let test_torn_leader_tail () =
  let t = E.torn_leader_tail (E.default_config ~storage:true (System.Dsm Dsm_replica.Group_safe_mode)) in
  check_int "every round fired its tear" t.E.t_rounds t.E.t_fired;
  check_int "every tear repaired" t.E.t_rounds t.E.t_repaired;
  check_int "every recovery reported its repair" t.E.t_rounds t.E.t_reports;
  check_bool "verdict clean" true t.E.t_verdict.Check.Durability.clean;
  check_bool "overall" true t.E.t_ok

(* The restart's WAL scan is the recovery scan: whatever it repaired must
   still be what [System.last_repair] reports once every technique's own
   recovery has run, not an empty report from a second scan of the already
   repaired log. *)
let test_repair_report_survives_recovery () =
  List.iter
    (fun technique ->
      let name = System.technique_name technique in
      let params = { Workload.Params.table4 with Workload.Params.servers = 3 } in
      let sys = System.create ~seed:3L ~params technique in
      for i = 0 to 3 do
        System.submit sys ~delegate:0
          (Db.Transaction.make ~id:(100 + i) ~client:0 [ Db.Op.Write (i, i + 1) ]);
        System.run_for sys (ms 100.)
      done;
      System.run_for sys (ms 500.);
      System.inject_storage_fault sys 0 Db.Db_engine.Torn_write;
      System.crash sys 0;
      System.run_for sys (ms 100.);
      System.recover sys 0;
      System.run_for sys (ms 1000.);
      check_bool (name ^ ": the crash tore a record") true
        ((System.storage_faults sys 0).Db.Db_engine.torn_fired = 1);
      let repairs =
        match System.last_repair sys 0 with
        | Some r -> List.length r.Db.Db_engine.repairs
        | None -> 0
      in
      check_bool (name ^ ": the restart's repair is still reported") true (repairs > 0))
    System.all_techniques

let lie_crash technique expected_class =
  let f = E.fsync_lie_group_crash (E.default_config ~storage:true technique) in
  check_bool "acked commits exist" true (f.E.f_acked > 0);
  check_bool "and are lost" true (f.E.f_lost > 0);
  check_bool "acked-but-volatile records dropped at the crash" true (f.E.f_lies_dropped > 0);
  check_bool "classified as expected" true
    (List.for_all
       (fun l -> l.Check.Durability.l_class = expected_class)
       f.E.f_verdict.Check.Durability.lost);
  check_bool "loss demonstrated, verdict clean" true f.E.f_ok

let test_lie_one_safe () =
  lie_crash (System.Lazy Lazy_replica.One_safe_mode) Check.Durability.Permitted_delegate_crash

let test_lie_group_safe () =
  lie_crash (System.Dsm Dsm_replica.Group_safe_mode) Check.Durability.Permitted_group_failure

let test_lie_two_safe () =
  lie_crash (System.Dsm Dsm_replica.Two_safe_mode) Check.Durability.Permitted_storage_betrayal

(* ---- Mutation rediscovery and determinism ---- *)

let test_rediscover_skip_checksum () =
  let cfg =
    E.default_config ~storage:true
      ~mutate:(break_all System.break_skip_checksum)
      (System.Dsm Dsm_replica.Group_safe_mode)
  in
  let r = E.explore ~seed:42L ~budget:100 ~max_random_events:3 cfg in
  match r.E.counterexample with
  | None -> Alcotest.fail "skip-checksum mutation not rediscovered within 100 storms"
  | Some c ->
    check_bool "found in the random-storm phase" true (c.E.found_in = E.Random_storm);
    check_bool "shrinking never grows" true
      (S.event_count c.E.shrunk <= S.event_count c.E.original);
    let replay = E.run cfg c.E.shrunk in
    check_bool "shrunk schedule still fails on replay" true replay.E.failed;
    check_bool "because detection fell short, not because of a forbidden loss" true
      (let v = verdict_of "rediscovery" replay in
       (not v.Check.Durability.repair_ok) || v.Check.Durability.forbidden > 0)

let test_storage_batched_certify () =
  (* With batching, one WAL record's worth of ordering progress can cover a
     whole batch of transactions: a torn write or lying fsync under the
     record must not turn into forbidden loss for any member of the
     batch. *)
  let cfg =
    E.default_config ~storage:true
      ~tuning:(Gcs.Bcast_tuning.batched ())
      (System.Dsm Dsm_replica.Group_safe_mode)
  in
  let r = E.explore ~seed:42L ~budget:50 ~max_random_events:3 cfg in
  check_bool "every storage storm durable on the batched engine" true
    (Option.is_none r.E.counterexample)

let test_storage_explore_deterministic () =
  let cfg = E.default_config ~storage:true System.Two_pc in
  let r1 = E.explore ~seed:7L ~budget:50 ~max_random_events:3 cfg in
  let r2 = E.explore ~seed:7L ~budget:50 ~max_random_events:3 cfg in
  Alcotest.(check string) "rendered reports byte-identical" (E.render_result r1)
    (E.render_result r2)

let test_storage_serialize_round_trip () =
  let s =
    S.make ~servers:3 ~txs:2 ~spacing:(us 5_000)
      [
        { S.at = ms 2.; kind = S.Torn_write 0 };
        { S.at = ms 3.; kind = S.Fsync_lie 1 };
        { S.at = ms 4.; kind = S.Corrupt_record 2 };
        { S.at = ms 5.; kind = S.Slow_disk { server = 0; factor = 25.; until = ms 20. } };
        { S.at = ms 6.; kind = S.Disk_full { server = 1; until = ms 22. } };
        { S.at = ms 8.; kind = S.Crash 0 };
        { S.at = ms 25.; kind = S.Recover 0 };
      ]
  in
  match S.parse (S.serialize s) with
  | Error e -> Alcotest.fail e
  | Ok s' ->
    check_bool "parse inverts serialize" true (S.equal s s');
    Alcotest.(check string) "byte-stable" (S.serialize s) (S.serialize s')

let () =
  Alcotest.run "storage"
    [
      ( "wal-codec",
        QCheck_alcotest.to_alcotest prop_round_trip
        :: QCheck_alcotest.to_alcotest prop_truncation_detected
        :: QCheck_alcotest.to_alcotest prop_flip_detected
        :: QCheck_alcotest.to_alcotest prop_skip_checksum_misparses
        :: QCheck_alcotest.to_alcotest prop_crc32_matches_bitwise
        :: [
             Alcotest.test_case "scan repairs and reports" `Quick test_scan_repairs;
             Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
             Alcotest.test_case "crc32 every length and offset" `Quick
               test_crc32_every_length_and_offset;
           ] );
      ( "stable-storage",
        [
          Alcotest.test_case "lying fsync acks then drops" `Quick test_fsync_lie_hook;
          Alcotest.test_case "disk full parks and releases" `Quick
            test_disk_full_parks_and_releases;
          Alcotest.test_case "write factor slows flushes" `Quick test_write_factor_slows_flushes;
          Alcotest.test_case "tamper_last / last_durable" `Quick test_tamper_last;
        ] );
      ("corpus", [ Alcotest.test_case "replay corpus re-certified" `Quick test_corpus ]);
      ( "subsumption",
        [
          Alcotest.test_case "tear consumes the flipped record" `Quick test_subsumed_by_tear;
          Alcotest.test_case "double flip restores the bytes" `Quick
            test_subsumed_by_double_flip;
        ] );
      ( "amnesia",
        [ Alcotest.test_case "PR 1 scenario via the new fault path" `Quick
            test_amnesia_via_new_path ] );
      ( "directed",
        [
          Alcotest.test_case "torn leader tail repaired" `Quick test_torn_leader_tail;
          Alcotest.test_case "repair report survives recovery" `Quick
            test_repair_report_survives_recovery;
          Alcotest.test_case "fsync-lie group crash at 1-safe" `Quick test_lie_one_safe;
          Alcotest.test_case "fsync-lie group crash at group-safe" `Quick test_lie_group_safe;
          Alcotest.test_case "fsync-lie group crash at 2-safe" `Quick test_lie_two_safe;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "skip-checksum rediscovered" `Slow test_rediscover_skip_checksum;
          Alcotest.test_case "deterministic per seed" `Quick test_storage_explore_deterministic;
          Alcotest.test_case "batched engine survives storage storms" `Quick
            test_storage_batched_certify;
          Alcotest.test_case "schedule serialization round-trips" `Quick
            test_storage_serialize_round_trip;
        ] );
    ]
