(* Tests for stable storage, durable cells and the buffer pool. *)

open Store

let ms = Sim.Sim_time.span_ms
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fixture () =
  let engine = Sim.Engine.create () in
  let disk = Sim.Resource.create engine ~name:"disk" ~servers:1 in
  (engine, disk)

let fixed_write d () = d

(* ---- Stable_storage ---- *)

let test_append_becomes_durable_after_write () =
  let engine, disk = fixture () in
  let log = Stable_storage.create engine ~name:"wal" ~disk ~write_time:(fixed_write (ms 8.)) () in
  let durable_at = ref (-1) in
  Stable_storage.append log "a" ~on_durable:(fun () ->
      durable_at := Sim.Sim_time.to_us (Sim.Engine.now engine));
  check_int "not yet durable" 0 (Stable_storage.durable_count log);
  Sim.Engine.run engine;
  check_int "durable after 8ms" 8000 !durable_at;
  Alcotest.(check (list string)) "contents" [ "a" ] (Stable_storage.durable_records log)

let test_group_commit_batches () =
  let engine, disk = fixture () in
  let log = Stable_storage.create engine ~name:"wal" ~disk ~write_time:(fixed_write (ms 8.)) () in
  (* First append starts a flush; the next three arrive while it is in
     flight and must share the second flush. *)
  Stable_storage.append_quiet log 0;
  Sim.Engine.schedule engine ~delay:(ms 1.) (fun () ->
    for i = 1 to 3 do
    Stable_storage.append_quiet log i
    done);
  Sim.Engine.run engine;
  check_int "two flushes for four records" 2 (Stable_storage.flush_count log);
  Alcotest.(check (list int)) "order kept" [ 0; 1; 2; 3 ] (Stable_storage.durable_records log)

let test_no_group_commit_flushes_each () =
  let engine, disk = fixture () in
  let config = { Stable_storage.group_commit = false } in
  let log =
    Stable_storage.create engine ~name:"wal" ~disk ~write_time:(fixed_write (ms 8.)) ~config ()
  in
  for i = 1 to 3 do
    Stable_storage.append_quiet log i
  done;
  Sim.Engine.run engine;
  check_int "one flush per record" 3 (Stable_storage.flush_count log)

let test_crash_loses_pending_keeps_durable () =
  let engine, disk = fixture () in
  let log = Stable_storage.create engine ~name:"wal" ~disk ~write_time:(fixed_write (ms 8.)) () in
  let acked = ref [] in
  Stable_storage.append log "first" ~on_durable:(fun () -> acked := "first" :: !acked);
  (* Let the first flush complete, then append and crash mid-flush. *)
  Sim.Engine.schedule engine ~delay:(ms 10.) (fun () ->
    Stable_storage.append log "lost" ~on_durable:(fun () -> acked := "lost" :: !acked);
    Sim.Engine.schedule engine ~delay:(ms 2.) (fun () -> Stable_storage.crash log));
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "only first acked" [ "first" ] !acked;
  Alcotest.(check (list string)) "only first durable" [ "first" ] (Stable_storage.durable_records log)

let test_storage_usable_after_crash () =
  let engine, disk = fixture () in
  let log = Stable_storage.create engine ~name:"wal" ~disk ~write_time:(fixed_write (ms 8.)) () in
  Stable_storage.append_quiet log 1;
  Sim.Engine.run engine;
  Stable_storage.crash log;
  Stable_storage.append_quiet log 2;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "appends resume" [ 1; 2 ] (Stable_storage.durable_records log)

let test_truncate () =
  let engine, disk = fixture () in
  let log = Stable_storage.create engine ~name:"wal" ~disk ~write_time:(fixed_write (ms 1.)) () in
  List.iter (Stable_storage.append_quiet log) [ 1; 2; 3; 4 ];
  Sim.Engine.run engine;
  Stable_storage.truncate log ~keep:(fun r -> r > 2);
  Alcotest.(check (list int)) "kept" [ 3; 4 ] (Stable_storage.durable_records log);
  check_int "count tracks" 2 (Stable_storage.durable_count log)

(* ---- Durable_cell ---- *)

let test_cell_write_visible_after_disk () =
  let engine, disk = fixture () in
  let cell = Durable_cell.create engine ~name:"c" ~disk ~write_time:(fixed_write (ms 8.)) ~initial:0 in
  Durable_cell.write_quiet cell 5;
  check_int "still initial" 0 (Durable_cell.read cell);
  Sim.Engine.run engine;
  check_int "durable now" 5 (Durable_cell.read cell)

let test_cell_crash_keeps_old_value () =
  let engine, disk = fixture () in
  let cell = Durable_cell.create engine ~name:"c" ~disk ~write_time:(fixed_write (ms 8.)) ~initial:1 in
  Durable_cell.write_quiet cell 2;
  Sim.Engine.schedule engine ~delay:(ms 3.) (fun () -> Durable_cell.crash cell);
  Sim.Engine.run engine;
  check_int "old value survives" 1 (Durable_cell.read cell)

let test_cell_no_regression_on_parallel_disk () =
  let engine = Sim.Engine.create () in
  let disk = Sim.Resource.create engine ~name:"disk" ~servers:2 in
  (* Two overlapping writes on a 2-server disk: the later submission must
     win even if the earlier one completes later. *)
  let durations = ref [ ms 10.; ms 2. ] in
  let write_time () =
    match !durations with
    | d :: rest ->
      durations := rest;
      d
    | [] -> ms 1.
  in
  let cell = Durable_cell.create engine ~name:"c" ~disk ~write_time ~initial:0 in
  Durable_cell.write_quiet cell 1 (* slow write *);
  Durable_cell.write_quiet cell 2 (* fast write, submitted later *);
  Sim.Engine.run engine;
  check_int "later submission wins" 2 (Durable_cell.read cell)

(* ---- Buffer_pool ---- *)

let test_probabilistic_ratio_converges () =
  let rng = Sim.Rng.create 5L in
  let pool = Buffer_pool.create rng 0.2 in
  let hits = ref 0 in
  for _ = 1 to 20_000 do
    if Buffer_pool.read pool then incr hits
  done;
  let ratio = float_of_int !hits /. 20_000. in
  check_bool "near 0.2" true (ratio > 0.185 && ratio < 0.215)

let test_pool_rejects_bad_args () =
  let rng = Sim.Rng.create 1L in
  Alcotest.check_raises "bad ratio" (Invalid_argument "Buffer_pool.create: ratio out of range")
    (fun () -> ignore (Buffer_pool.create rng 1.5))

let () =
  Alcotest.run "store"
    [
      ( "stable_storage",
        [
          Alcotest.test_case "durable after write" `Quick test_append_becomes_durable_after_write;
          Alcotest.test_case "group commit batches" `Quick test_group_commit_batches;
          Alcotest.test_case "per-record flushes" `Quick test_no_group_commit_flushes_each;
          Alcotest.test_case "crash loses pending" `Quick test_crash_loses_pending_keeps_durable;
          Alcotest.test_case "usable after crash" `Quick test_storage_usable_after_crash;
          Alcotest.test_case "truncate" `Quick test_truncate;
        ] );
      ( "durable_cell",
        [
          Alcotest.test_case "visible after disk" `Quick test_cell_write_visible_after_disk;
          Alcotest.test_case "crash keeps old value" `Quick test_cell_crash_keeps_old_value;
          Alcotest.test_case "no regression when parallel" `Quick
            test_cell_no_regression_on_parallel_disk;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "probabilistic ratio" `Quick test_probabilistic_ratio_converges;
          Alcotest.test_case "argument validation" `Quick test_pool_rejects_bad_args;
        ] );
    ]
