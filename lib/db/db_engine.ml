type config = {
  items : int;
  io_time_min : Sim.Sim_time.span;
  io_time_max : Sim.Sim_time.span;
  cpu_per_io : Sim.Sim_time.span;
  buffer_hit_ratio : float;
  group_commit : bool;
}

let async_factor = 0.5

type wal_record = {
  w_tx : Transaction.id;
  w_decision : Certifier.decision;
  w_writes : (int * int) list;
}

type fault = Wipe_wal_at_crash | Torn_write | Fsync_lie | Corrupt_record

type repair_report = { scanned : int; replayed : int; repairs : Wal_codec.repair list }

type fault_stats = {
  wal_wipes : int;
  amnesia_armed : bool;
  torn_armed : int;
  torn_fired : int;
  torn_scanned : int;
  torn_repaired : int;
  lies_armed : int;
  lies_acked : int;
  lies_dropped : int;
  corrupt_injected : int;
  corrupt_subsumed : int;
  corrupt_scanned : int;
  corrupt_detected : int;
  sequence_gaps : int;
}

type t = {
  engine : Sim.Engine.t;
  process : Sim.Process.t;
  cpus : Sim.Resource.t;
  disks : Sim.Resource.t;
  rng : Sim.Rng.t;
  config : config;
  (* Item values, 8 bytes each at offset [8 * item]: a block the GC never
     scans, so a snapshot or its install is one memcpy and a fresh server
     one memset. An int array this large lives in the major heap, where a
     copy initialises every element through [caml_initialize]. *)
  values : Bytes.t;
  pool : Store.Buffer_pool.t;
  (* The WAL holds encoded frames (Wal_codec), not structured records: the
     storage nemesis tears, rots and drops bytes, and recovery must prove
     it can tell damage from data. *)
  wal : string Store.Stable_storage.t;
  mutable lock_table : Lock_table.t;
  testable_table : Testable_tx.t;
  mutable next_seq : int;
  (* Checksum verification on recovery; [break_skip_checksum] clears it to
     model an unhardened WAL and prove the durability oracle notices. *)
  mutable verify : bool;
  mutable amnesia : bool;
  mutable torn_pending : bool;
  mutable wal_wipes : int;
  mutable torn_armed : int;
  mutable torn_fired : int;
  mutable torn_scanned : int;
  mutable torn_repaired : int;
  mutable lies_armed : int;
  mutable corrupt_injected : int;
  (* Post-images of corrupted frames still in the WAL, awaiting a recovery
     scan. A later destructive fault that physically destroys one (a torn
     write or wipe of the same record, a second flip restoring it) moves
     it to [corrupt_subsumed]: the scan can no longer be asked to detect
     evidence that no longer exists. *)
  mutable corrupt_pending : string list;
  mutable corrupt_subsumed : int;
  mutable corrupt_scanned : int;
  mutable corrupt_detected : int;
  mutable sequence_gaps : int;
  mutable last_repair : repair_report option;
  c_torn_repaired : Obs.Registry.counter;
  c_corrupt_detected : Obs.Registry.counter;
  c_degraded : Obs.Registry.counter;
}

let config t = t.config
let engine t = t.engine

let draw_io_time rng config = Sim.Rng.uniform_span rng config.io_time_min config.io_time_max

let io_time t = draw_io_time t.rng t.config

let scaled_io_time t factor =
  let us = float_of_int (Sim.Sim_time.span_to_us (io_time t)) *. factor in
  Sim.Sim_time.span_us (int_of_float (Float.max 1. (Float.round us)))

let decode_frames t frames =
  Wal_codec.scan ~verify:t.verify frames

let wal_frames t = Store.Stable_storage.durable_records t.wal

let wal_records t =
  let records, _repairs = decode_frames t (wal_frames t) in
  List.map (fun (r : Wal_codec.record) -> { w_tx = r.tx; w_decision = r.decision; w_writes = r.writes }) records

let rec remove_first x = function
  | [] -> []
  | y :: rest -> if String.equal x y then rest else y :: remove_first x rest

let wipe_wal_now t =
  Store.Stable_storage.truncate t.wal ~keep:(fun _ -> false);
  t.corrupt_subsumed <- t.corrupt_subsumed + List.length t.corrupt_pending;
  t.corrupt_pending <- [];
  t.wal_wipes <- t.wal_wipes + 1

(* Torn write: the crash cut the tail append mid-record — keep only the
   first half of its bytes. *)
let tear s = String.sub s 0 (String.length s / 2)

let flip_last_byte s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set_uint8 b (n - 1) (Bytes.get_uint8 b (n - 1) lxor 0xFF);
    Bytes.unsafe_to_string b
  end

let[@inline] get t item = Int64.to_int (Bytes.get_int64_ne t.values (8 * item))
let[@inline] set t item v = Bytes.set_int64_ne t.values (8 * item) (Int64.of_int v)

let replay t (records : Wal_codec.record list) =
  Bytes.fill t.values 0 (Bytes.length t.values) '\000';
  Testable_tx.reset t.testable_table;
  List.iter
    (fun (r : Wal_codec.record) ->
      (match r.decision with
      | Certifier.Commit ->
          (* Bounds-guard every write: with verification off a damaged frame
             can decode to garbage, and replay must still not crash. *)
          List.iter
            (fun (item, v) -> if item >= 0 && item < t.config.items then set t item v)
            r.writes;
          Testable_tx.record t.testable_table r.tx Testable_tx.Committed
      | Certifier.Abort -> Testable_tx.record t.testable_table r.tx Testable_tx.Aborted);
      if r.seq >= t.next_seq then t.next_seq <- r.seq + 1)
    records

(* The recovery scan: repair the durable WAL, replay what remains and keep
   the report as [last_repair]. A second scan of a repaired log would find
   nothing and overwrite the report, so it runs once per restart. *)
let scan_and_replay t =
  let frames = wal_frames t in
  let records, repairs = decode_frames t frames in
  (* Capture how many injected faults this scan was responsible for
     finding *before* counting what it actually found: the durability
     oracle compares the two, and an unhardened WAL (verify off) must come
     up short. *)
  t.torn_scanned <- t.torn_fired;
  t.corrupt_scanned <- t.corrupt_injected - t.corrupt_subsumed;
  List.iter
    (function
      | Wal_codec.Torn_tail_truncated ->
          t.torn_repaired <- t.torn_repaired + 1;
          Obs.Registry.inc t.c_torn_repaired
      | Wal_codec.Corrupt_record_dropped _ ->
          t.corrupt_detected <- t.corrupt_detected + 1;
          Obs.Registry.inc t.c_corrupt_detected
      | Wal_codec.Sequence_gap _ -> t.sequence_gaps <- t.sequence_gaps + 1)
    repairs;
  (* Physically repair the log: drop every frame the scan refused, so a
     later recovery sees a clean log and nothing is double-counted. *)
  if repairs <> [] then
    Store.Stable_storage.truncate t.wal ~keep:(fun f ->
        match Wal_codec.decode ~verify:t.verify f with Ok _ -> true | Error _ -> false);
  (* The scan has now been confronted with every pending corruption —
     found or (with verification off) missed; either way the evidence is
     consumed and must not be demanded of a later scan. *)
  t.corrupt_pending <- [];
  replay t records;
  t.last_repair <- Some { scanned = List.length frames; replayed = List.length records; repairs }

let create ?registry engine ~process ~cpus ~disks ~rng config =
  let pool = Store.Buffer_pool.create (Sim.Rng.split rng) config.buffer_hit_ratio in
  let wal_rng = Sim.Rng.split rng in
  let wal =
    Store.Stable_storage.create engine
      ~name:(Sim.Process.name process ^ ".wal")
      ~disk:disks
      ~write_time:(fun () -> draw_io_time wal_rng config)
      ~config:{ Store.Stable_storage.group_commit = config.group_commit }
      ()
  in
  let registry = match registry with Some r -> r | None -> Obs.Registry.create () in
  let t =
    {
      engine;
      process;
      cpus;
      disks;
      rng;
      config;
      values = Bytes.make (8 * config.items) '\000';
      pool;
      wal;
      lock_table = Lock_table.create ();
      testable_table = Testable_tx.create ();
      next_seq = 0;
      verify = true;
      amnesia = false;
      torn_pending = false;
      wal_wipes = 0;
      torn_armed = 0;
      torn_fired = 0;
      torn_scanned = 0;
      torn_repaired = 0;
      lies_armed = 0;
      corrupt_injected = 0;
      corrupt_pending = [];
      corrupt_subsumed = 0;
      corrupt_scanned = 0;
      corrupt_detected = 0;
      sequence_gaps = 0;
      last_repair = None;
      c_torn_repaired = Obs.Registry.counter registry "wal.torn_repaired";
      c_corrupt_detected = Obs.Registry.counter registry "wal.corrupt_detected";
      c_degraded = Obs.Registry.counter registry "disk.degraded";
    }
  in
  Sim.Process.on_kill process (fun () ->
      Store.Stable_storage.crash wal;
      if t.amnesia then wipe_wal_now t;
      if t.torn_pending then begin
        t.torn_pending <- false;
        (* The tear may land on a record that was just corrupted: the
           half that held the flipped byte is gone, so the scan can only
           report the tear — move the corruption to subsumed. *)
        (match Store.Stable_storage.last_durable wal with
        | Some head when List.mem head t.corrupt_pending ->
            t.corrupt_pending <- remove_first head t.corrupt_pending;
            t.corrupt_subsumed <- t.corrupt_subsumed + 1
        | Some _ | None -> ());
        (* After an amnesiac wipe there is no tail left to tear; only count
           a firing that actually damaged a record. *)
        if Store.Stable_storage.tamper_last wal tear then t.torn_fired <- t.torn_fired + 1
      end;
      Testable_tx.reset t.testable_table;
      t.lock_table <- Lock_table.create ());
  (* Self-healing restart: scan (and physically repair) the local WAL
     before any replication-layer recovery hook runs — registration order
     guarantees this hook fires first. Replica layers read its result
     ([testable], [last_repair]) instead of scanning again. *)
  Sim.Process.on_restart process (fun () -> scan_and_replay t);
  t

type snapshot = Bytes.t

let value = get
let values t = Array.init t.config.items (get t)
let values_snapshot t = Bytes.copy t.values
let install_snapshot t snapshot =
  if Bytes.length snapshot <> Bytes.length t.values then
    invalid_arg "Db_engine.install_snapshot: item count differs";
  Bytes.blit snapshot 0 t.values 0 (Bytes.length t.values)

let guard t k = Sim.Process.guard t.process k

(* Every timed operation is a no-op on a dead server: straight-line code
   can keep issuing I/O after a synchronous crash (e.g. a client callback
   that kills the server), and none of it may reach the disk. *)
let read t ~item ~k =
  if not (Sim.Process.alive t.process) then ()
  else if Store.Buffer_pool.read t.pool then k (get t item)
  else
    Sim.Resource.request t.cpus ~duration:t.config.cpu_per_io
      (guard t (fun () ->
           Sim.Resource.request t.disks ~duration:(io_time t)
             (guard t (fun () -> k (get t item)))))

let read_seq t ~items ~k =
  let rec loop = function
    | [] -> k ()
    | item :: rest -> read t ~item ~k:(fun _ -> loop rest)
  in
  loop items

let install_writes t writes = List.iter (fun (item, v) -> set t item v) writes

let write_io t ~count ~factor ~k =
  if not (Sim.Process.alive t.process) then ()
  else if count <= 0 then k ()
  else begin
    let remaining = ref count in
    let one_done () =
      decr remaining;
      if !remaining = 0 then k ()
    in
    for _ = 1 to count do
      Sim.Resource.request t.cpus ~duration:t.config.cpu_per_io
        (guard t (fun () ->
             Sim.Resource.request t.disks ~duration:(scaled_io_time t factor) (guard t one_done)))
    done
  end

let encode_record t ~tx ~decision ~writes =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Wal_codec.encode ~seq ~tx ~decision ~writes

let log_commit t ~tx ~decision ~writes ~k =
  if Sim.Process.alive t.process then
    Store.Stable_storage.append t.wal (encode_record t ~tx ~decision ~writes) ~on_durable:(guard t k)

let log_commit_quiet t ~tx ~decision ~writes =
  if Sim.Process.alive t.process then
    Store.Stable_storage.append_quiet t.wal (encode_record t ~tx ~decision ~writes)

let locks t = t.lock_table
let testable t = t.testable_table

let inject t = function
  | Wipe_wal_at_crash -> t.amnesia <- true
  | Torn_write ->
      t.torn_armed <- t.torn_armed + 1;
      t.torn_pending <- true
  | Fsync_lie ->
      t.lies_armed <- t.lies_armed + 1;
      Store.Stable_storage.arm_fsync_lie t.wal
  | Corrupt_record -> (
      match Store.Stable_storage.last_durable t.wal with
      | None -> ()
      | Some head ->
          if Store.Stable_storage.tamper_last t.wal flip_last_byte then begin
            t.corrupt_injected <- t.corrupt_injected + 1;
            if List.mem head t.corrupt_pending then begin
              (* Flipping the same byte twice restores the frame: both
                 corruptions are now physically undetectable. *)
              t.corrupt_pending <- remove_first head t.corrupt_pending;
              t.corrupt_subsumed <- t.corrupt_subsumed + 2
            end
            else
              match Wal_codec.decode head with
              | Error _ ->
                  (* The tail frame was already damaged (a torn write):
                     the scan will report that damage once, as the tear. *)
                  t.corrupt_subsumed <- t.corrupt_subsumed + 1
              | Ok _ -> t.corrupt_pending <- flip_last_byte head :: t.corrupt_pending
          end)

let break_skip_checksum t = t.verify <- false

let set_disk_slow t factor = Store.Stable_storage.set_write_factor t.wal factor
let set_disk_full t full = Store.Stable_storage.set_full t.wal full
let disk_full t = Store.Stable_storage.is_full t.wal

let note_degraded t = Obs.Registry.inc t.c_degraded

let fault_stats t =
  {
    wal_wipes = t.wal_wipes;
    amnesia_armed = t.amnesia;
    torn_armed = t.torn_armed;
    torn_fired = t.torn_fired;
    torn_scanned = t.torn_scanned;
    torn_repaired = t.torn_repaired;
    lies_armed = t.lies_armed;
    lies_acked = Store.Stable_storage.lies_acked t.wal;
    lies_dropped = Store.Stable_storage.lies_dropped t.wal;
    corrupt_injected = t.corrupt_injected;
    corrupt_subsumed = t.corrupt_subsumed;
    corrupt_scanned = t.corrupt_scanned;
    corrupt_detected = t.corrupt_detected;
    sequence_gaps = t.sequence_gaps;
  }

let last_repair t = t.last_repair

let durable_commits t =
  List.length
    (List.filter
       (fun r -> Certifier.decision_equal r.w_decision Certifier.Commit)
       (wal_records t))

let recover t ~k =
  Sim.Resource.request t.disks ~duration:(io_time t)
    (guard t (fun () ->
         scan_and_replay t;
         k ()))
