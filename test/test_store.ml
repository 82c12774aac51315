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
  let pool = Buffer_pool.create rng (Buffer_pool.Probabilistic 0.2) in
  for i = 1 to 20_000 do
    ignore (Buffer_pool.read pool ~page:i)
  done;
  let ratio = Buffer_pool.hit_ratio pool in
  check_bool "near 0.2" true (ratio > 0.185 && ratio < 0.215)

let test_lru_hits_resident_page () =
  let rng = Sim.Rng.create 1L in
  let pool = Buffer_pool.create rng (Buffer_pool.Lru 2) in
  check_bool "first read misses" false (Buffer_pool.read pool ~page:1);
  check_bool "second read hits" true (Buffer_pool.read pool ~page:1);
  check_int "one hit" 1 (Buffer_pool.hits pool)

let test_lru_evicts_least_recent () =
  let rng = Sim.Rng.create 1L in
  let pool = Buffer_pool.create rng (Buffer_pool.Lru 2) in
  ignore (Buffer_pool.read pool ~page:1);
  ignore (Buffer_pool.read pool ~page:2);
  ignore (Buffer_pool.read pool ~page:1) (* 2 is now least recent *);
  ignore (Buffer_pool.read pool ~page:3) (* evicts 2 *);
  check_bool "1 still resident" true (Buffer_pool.read pool ~page:1);
  check_bool "2 evicted" false (Buffer_pool.read pool ~page:2)

let test_lru_write_installs () =
  let rng = Sim.Rng.create 1L in
  let pool = Buffer_pool.create rng (Buffer_pool.Lru 4) in
  Buffer_pool.write pool ~page:9;
  check_bool "written page resident" true (Buffer_pool.read pool ~page:9)

let test_invalidate_empties () =
  let rng = Sim.Rng.create 1L in
  let pool = Buffer_pool.create rng (Buffer_pool.Lru 4) in
  ignore (Buffer_pool.read pool ~page:1);
  Buffer_pool.invalidate pool;
  check_bool "resident lost" false (Buffer_pool.read pool ~page:1)

(* The LRU pool against a recency list, most recent first: every read's
   hit or miss and the final counters agree over random reads, writes and
   invalidations. *)
type pool_op = Read of int | Write of int | Invalidate

let prop_lru_matches_recency_list =
  QCheck2.Test.make ~name:"lru agrees with a recency list" ~count:300
    QCheck2.Gen.(
      pair (int_range 1 5)
        (list_size (int_range 0 200)
           (frequency
              [
                (6, map (fun p -> Read p) (int_range 0 9));
                (3, map (fun p -> Write p) (int_range 0 9));
                (1, pure Invalidate);
              ])))
    (fun (capacity, ops) ->
      let pool = Buffer_pool.create (Sim.Rng.create 1L) (Buffer_pool.Lru capacity) in
      let recent = ref [] in
      let install page =
        recent := List.filteri (fun i _ -> i < capacity) (page :: List.filter (( <> ) page) !recent)
      in
      List.for_all
        (fun op ->
          match op with
          | Read page ->
            let expected = List.mem page !recent in
            install page;
            Bool.equal expected (Buffer_pool.read pool ~page)
          | Write page ->
            install page;
            Buffer_pool.write pool ~page;
            true
          | Invalidate ->
            recent := [];
            Buffer_pool.invalidate pool;
            true)
        ops)

let test_pool_rejects_bad_args () =
  let rng = Sim.Rng.create 1L in
  Alcotest.check_raises "bad ratio" (Invalid_argument "Buffer_pool.create: ratio out of range")
    (fun () -> ignore (Buffer_pool.create rng (Buffer_pool.Probabilistic 1.5)));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Buffer_pool.create: capacity must be positive") (fun () ->
      ignore (Buffer_pool.create rng (Buffer_pool.Lru 0)))

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
          Alcotest.test_case "lru hit" `Quick test_lru_hits_resident_page;
          Alcotest.test_case "lru eviction" `Quick test_lru_evicts_least_recent;
          Alcotest.test_case "write installs" `Quick test_lru_write_installs;
          Alcotest.test_case "invalidate" `Quick test_invalidate_empties;
          Alcotest.test_case "argument validation" `Quick test_pool_rejects_bad_args;
          QCheck_alcotest.to_alcotest prop_lru_matches_recency_list;
        ] );
    ]
