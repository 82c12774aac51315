(* Tests for the sharded partial-replication layer: Shard_map routing
   (pinned boundaries + properties), the Zipf workload generator, the
   generator's sharded id/pick hooks, single-shard byte-for-byte
   reproduction of the unsharded engine, fault-free cross-shard 2PC
   equivalence with the merged-history oracle, the directed shard-aware
   nemesis scenarios, the replayed shard corpus, and the sharded obs
   export. *)

open Groupsafe
module SC = Shard.Shard_check
module SM = Shard.Shard_map
module S = Check.Schedule

let st = Sim.Sim_time.span_us
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let group_safe = System.Dsm Dsm_replica.Group_safe_mode
let two_safe = System.Dsm Dsm_replica.Two_safe_mode

(* ---- Shard_map ---- *)

let test_map_pinned_boundaries () =
  (* 10 keys over 3 shards: the first (10 mod 3) = 1 range holds the
     extra key. These exact cuts are part of the routing contract — the
     workload, the checker and every replica derive them independently. *)
  let m = SM.create ~items:10 ~shards:3 in
  Alcotest.(check (list (pair int int)))
    "cuts pinned"
    [ (0, 4); (4, 7); (7, 10) ]
    (List.init 3 (SM.range m));
  let m8 = SM.create ~items:240 ~shards:8 in
  Alcotest.(check (list (pair int int)))
    "even split pinned"
    (List.init 8 (fun s -> (30 * s, (30 * s) + 30)))
    (List.init 8 (SM.range m8));
  let m1 = SM.create ~items:7 ~shards:7 in
  Alcotest.(check (list (pair int int)))
    "one key per shard"
    (List.init 7 (fun s -> (s, s + 1)))
    (List.init 7 (SM.range m1))

let test_map_invalid () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Shard_map.create: need at least one shard") (fun () ->
      ignore (SM.create ~items:4 ~shards:0));
  Alcotest.check_raises "more shards than items"
    (Invalid_argument "Shard_map.create: more shards than items") (fun () ->
      ignore (SM.create ~items:4 ~shards:5));
  let m = SM.create ~items:4 ~shards:2 in
  Alcotest.check_raises "key out of range"
    (Invalid_argument "Shard_map.shard_of_key: key out of range") (fun () ->
      ignore (SM.shard_of_key m 4))

(* Every key lands in exactly one shard, that shard's range contains it,
   and the closed-form routing agrees with a linear scan of the ranges. *)
let prop_routing =
  QCheck2.Test.make ~name:"every key on exactly one shard, closed form = scan" ~count:300
    QCheck2.Gen.(pair (int_range 1 500) (int_range 1 500))
    (fun (items, pick) ->
      let shards = 1 + (pick mod items) in
      let m = SM.create ~items ~shards in
      let scan k =
        let hit = ref [] in
        for s = 0 to shards - 1 do
          let lo, hi = SM.range m s in
          if k >= lo && k < hi then hit := s :: !hit
        done;
        !hit
      in
      let ranges_cover =
        SM.range m 0 |> fst = 0
        && fst (SM.range m (shards - 1)) <= items
        && snd (SM.range m (shards - 1)) = items
        && List.for_all
             (fun s -> snd (SM.range m s) = fst (SM.range m (s + 1)))
             (List.init (shards - 1) Fun.id)
      in
      ranges_cover
      && List.for_all (fun k -> scan k = [ SM.shard_of_key m k ]) (List.init items Fun.id))

let test_shards_of_tx () =
  let m = SM.create ~items:10 ~shards:3 in
  let tx ops = Db.Transaction.make ~id:1 ~client:0 ops in
  Alcotest.(check (list int))
    "single shard" [ 0 ]
    (SM.shards_of_tx m (tx [ Db.Op.Write (0, 1); Db.Op.Read 3 ]));
  Alcotest.(check (list int))
    "ascending, deduplicated" [ 0; 2 ]
    (SM.shards_of_tx m (tx [ Db.Op.Write (9, 1); Db.Op.Read 0; Db.Op.Write (8, 1) ]));
  Alcotest.(check (option int))
    "fast-path test" (Some 1)
    (SM.single_shard m (tx [ Db.Op.Read 4; Db.Op.Write (6, 2) ]));
  Alcotest.(check (option int))
    "cross is not single" None
    (SM.single_shard m (tx [ Db.Op.Read 0; Db.Op.Write (9, 2) ]))

(* ---- Zipf ---- *)

let test_zipf_deterministic () =
  let z = Workload.Zipf.create ~items:64 ~s:1.1 in
  let draw () =
    let rng = Sim.Rng.create 99L in
    List.init 500 (fun _ -> Workload.Zipf.sample z rng)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draw ()) (draw ());
  List.iter
    (fun k -> check_bool "in range" true (k >= 0 && k < 64))
    (draw ())

let test_zipf_hottest_frequency () =
  (* Key 0 is the hottest; its empirical frequency over many draws must
     sit near its analytic probability. *)
  let items = 50 and n = 20_000 in
  let z = Workload.Zipf.create ~items ~s:1.0 in
  let rng = Sim.Rng.create 7L in
  let hits = ref 0 in
  for _ = 1 to n do
    if Workload.Zipf.sample z rng = 0 then incr hits
  done;
  let expected = Workload.Zipf.probability z 0 in
  let observed = float_of_int !hits /. float_of_int n in
  check_bool
    (Printf.sprintf "hottest-key frequency %.4f within 15%% of %.4f" observed expected)
    true
    (Float.abs (observed -. expected) < 0.15 *. expected);
  (* s = 0 degenerates to uniform. *)
  let u = Workload.Zipf.create ~items ~s:0. in
  check_bool "uniform probability" true
    (Float.abs (Workload.Zipf.probability u 3 -. (1. /. float_of_int items)) < 1e-9)

let test_zipf_det_tbl_stable () =
  (* Frequency counting through a Hashtbl walked with Det_tbl: the
     fold order is the sorted key order, stable across identical runs. *)
  let z = Workload.Zipf.create ~items:16 ~s:1.2 in
  let count () =
    let rng = Sim.Rng.create 3L in
    let tbl = Hashtbl.create 16 in
    for _ = 1 to 2_000 do
      let k = Workload.Zipf.sample z rng in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
    done;
    Analysis.Det_tbl.bindings ~cmp:Int.compare tbl
  in
  let b1 = count () and b2 = count () in
  Alcotest.(check (list (pair int int))) "deterministic bindings" b1 b2;
  check_bool "sorted by key" true (List.sort compare b1 = b1);
  check_bool "hottest key drawn most" true
    (match b1 with (0, n0) :: rest -> List.for_all (fun (_, n) -> n <= n0) rest | _ -> false)

let test_zipf_invalid () =
  Alcotest.check_raises "no items" (Invalid_argument "Zipf.create: need at least one item")
    (fun () -> ignore (Workload.Zipf.create ~items:0 ~s:1.));
  Alcotest.check_raises "negative skew" (Invalid_argument "Zipf.create: negative exponent")
    (fun () -> ignore (Workload.Zipf.create ~items:4 ~s:(-1.)))

(* ---- Generator sharded hooks ---- *)

let small_params =
  { Workload.Params.table4 with Workload.Params.servers = 3; items = 240 }

let test_generator_id_stride () =
  let g =
    Workload.Generator.create ~id_base:2 ~id_stride:5 small_params (Sim.Rng.create 1L)
  in
  let ids = List.init 4 (fun _ -> (Workload.Generator.next g ~client:0).Db.Transaction.id) in
  Alcotest.(check (list int)) "ids stride over the shard's slice" [ 2; 7; 12; 17 ] ids;
  check_int "next_id" 22 (Workload.Generator.next_id g)

let test_generator_defaults_unchanged () =
  (* The sharded hooks must leave the legacy stream untouched: explicit
     defaults and absent options draw identically. *)
  let stream create =
    let g = create () in
    List.init 20 (fun _ -> Workload.Generator.next g ~client:1)
  in
  let legacy =
    stream (fun () -> Workload.Generator.create small_params (Sim.Rng.create 5L))
  in
  let explicit =
    stream (fun () ->
        Workload.Generator.create ~id_base:0 ~id_stride:1 small_params (Sim.Rng.create 5L))
  in
  check_bool "byte-identical transactions" true (legacy = explicit)

let test_generator_pick_override () =
  let g =
    Workload.Generator.create ~pick:(fun _ -> 7) small_params (Sim.Rng.create 2L)
  in
  let txs = List.init 10 (fun _ -> Workload.Generator.next g ~client:0) in
  check_bool "every op on the picked item" true
    (List.for_all
       (fun tx -> List.for_all (fun op -> Db.Op.item op = 7) tx.Db.Transaction.ops)
       txs)

(* ---- Single shard = the unsharded engine ---- *)

let test_single_shard_reproduces_unsharded () =
  let run f =
    let p =
      f ~seed:21L ~params:small_params ~warmup_s:1. ~measure_s:2. group_safe ~load_tps:30.
    in
    ( p.Harness.Experiment.mean_ms,
      p.Harness.Experiment.p95_ms,
      p.Harness.Experiment.abort_rate,
      p.Harness.Experiment.throughput_tps,
      p.Harness.Experiment.completed )
  in
  let mean_u, p95_u, abort_u, tput_u, n_u =
    run (fun ~seed ~params ~warmup_s ~measure_s t ~load_tps ->
        Harness.Experiment.run_load_point ~seed ~params ~warmup_s ~measure_s t ~load_tps)
  in
  let mean_s, p95_s, abort_s, tput_s, n_s =
    run (fun ~seed ~params ~warmup_s ~measure_s t ~load_tps ->
        Harness.Experiment.run_sharded_load_point ~seed ~params ~warmup_s ~measure_s ~shards:1
          t ~load_tps)
  in
  check_bool "measured something" true (n_u > 10);
  check_int "same response count" n_u n_s;
  check_bool "same mean" true (Float.equal mean_u mean_s);
  check_bool "same p95" true (Float.equal p95_u p95_s);
  check_bool "same abort rate" true
    (Float.equal abort_u abort_s || (Float.is_nan abort_u && Float.is_nan abort_s));
  check_bool "same throughput" true (Float.equal tput_u tput_s)

(* ---- Fault-free cross-shard 2PC = the merged-history oracle ---- *)

(* With no faults, the 2PC-certified multi-shard history must be
   indistinguishable from what the single-shard oracle demands of the
   merged history: every submission acknowledged exactly once, nothing
   lost on any shard, no forbidden loss, every committed cross-shard
   transaction atomic, and cross traffic actually exercised. *)
let prop_fault_free_equivalence =
  QCheck2.Test.make ~name:"fault-free 2PC history equals merged-history oracle" ~count:12
    QCheck2.Gen.(triple (int_range 1 3) (int_range 2 8) (int_range 0 2))
    (fun (shards, txs, tech_i) ->
      let technique = List.nth [ group_safe; two_safe; System.Two_pc ] tech_i in
      let cfg = { (SC.default_config ~shards ~cross_every:2 technique) with SC.txs } in
      let sched = S.make ~servers:(shards * 3) ~txs ~spacing:(st 5000) [] in
      let o = SC.run cfg sched in
      let all_clean =
        (not o.SC.failed)
        && List.for_all
             (fun v ->
               v.SC.sv_ok
               && v.SC.sv_losses_allowed
               && v.SC.sv_report.Safety_checker.lost = [])
             o.SC.shard_verdicts
        && o.SC.cross.SC.cv_lost_parts = []
        && o.SC.cross.SC.cv_broken_atomicity = []
      in
      (* Under the certification techniques a blind write sub-transaction
         is always accepted, so every cross submission is acknowledged.
         Under eager 2PC the per-shard engine may refuse a write sub on a
         lock conflict, wedging the global transaction unacknowledged (the
         safe outcome) — the shortfall must then be accounted for by the
         write_sub_failed counters. *)
      let submitted_cross = if shards = 1 then 0 else ((txs - 1) / 2) + 1 in
      let wedge_budget =
        List.fold_left
          (fun acc (name, v) ->
            match v with
            | Obs.Registry.V_counter n when String.ends_with ~suffix:"xshard.write_sub_failed" name ->
              acc + n
            | _ -> acc)
          0
          (Obs.Registry.bindings o.SC.registry)
      in
      let cross_exercised =
        match technique with
        | System.Two_pc ->
          o.SC.cross.SC.cv_cross_acked <= submitted_cross
          && submitted_cross - o.SC.cross.SC.cv_cross_acked <= wedge_budget
        | _ -> o.SC.cross.SC.cv_cross_acked = submitted_cross && wedge_budget = 0
      in
      all_clean && cross_exercised)

let test_fault_free_registry_counters () =
  (* The merged registry must carry per-shard namespaces and count the
     cross-shard protocol: every cross submission runs one probe and (on
     commit) one write sub-transaction per participant. *)
  let cfg = SC.default_config ~shards:2 ~cross_every:2 two_safe in
  let sched = S.make ~servers:6 ~txs:4 ~spacing:(st 5000) [] in
  let o = SC.run cfg sched in
  let bindings = Obs.Registry.bindings o.SC.registry in
  let value name =
    match List.assoc_opt name bindings with
    | Some (Obs.Registry.V_counter n) -> n
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  check_int "2 cross submissions on shard 0" 2 (value "shard.0.xshard.cross_submitted");
  check_int "2 cross commits on shard 0" 2 (value "shard.0.xshard.cross_committed");
  check_int "fast path on shard 1" 2 (value "shard.1.xshard.fast_path");
  check_bool "probes ran on both shards" true
    (value "shard.0.xshard.probe_subs" >= 2 && value "shard.1.xshard.probe_subs" >= 2)

(* ---- Directed shard-aware scenarios ---- *)

let test_whole_shard_isolation_two_safe () =
  let cfg = SC.default_config ~shards:2 ~cross_every:2 two_safe in
  let sched =
    S.make ~servers:6 ~txs:4 ~spacing:(st 5000)
      (SC.isolate_shard_events ~sps:3 ~shard:1 ~at:(st 20000) ~hold:(st 25000))
  in
  let o = SC.run cfg sched in
  check_bool "clean" false o.SC.failed;
  check_bool "an isolated cross tx aborted or timed out" true
    (o.SC.cross.SC.cv_cross_committed < o.SC.cross.SC.cv_cross_acked)

let test_cross_group_cut_two_safe () =
  (* Majorities on both shards stay connected across the cut, so cross
     traffic keeps committing through the partition. *)
  let cfg = SC.default_config ~shards:2 ~cross_every:2 two_safe in
  let sched =
    S.make ~servers:6 ~txs:4 ~spacing:(st 5000)
      [
        { S.at = st 10000; kind = S.Partition [ [ 0; 1; 3; 4 ] ] };
        { S.at = st 40000; kind = S.Heal };
      ]
  in
  let o = SC.run cfg sched in
  check_bool "clean" false o.SC.failed;
  check_int "both cross txs committed" 2 o.SC.cross.SC.cv_cross_committed

let test_storm_two_safe_clean () =
  let cfg = SC.default_config ~shards:2 ~cross_every:2 two_safe in
  let r = SC.storm ~seed:42L ~budget:8 cfg in
  check_bool "no counterexample at small budget" true (r.SC.counterexample = None);
  check_int "full budget spent" 8 r.SC.runs

let test_schedule_vocabulary_guards () =
  let cfg = SC.default_config ~shards:2 two_safe in
  Alcotest.check_raises "server count must match layout"
    (Invalid_argument "Shard_check.run: schedule servers must equal shards * servers-per-shard")
    (fun () -> ignore (SC.run cfg (S.make ~servers:3 ~txs:1 ~spacing:(st 5000) [])));
  Alcotest.check_raises "delay events rejected"
    (Invalid_argument "Shard_check.run: delivery-delay events are not in the sharded vocabulary")
    (fun () ->
      ignore
        (SC.run cfg
           (S.make ~servers:6 ~txs:1 ~spacing:(st 5000)
              [ { S.at = st 1000; kind = S.Delay (0, st 1000) } ])))

(* ---- Corpus replay ---- *)

let corpus_dir = "shard_corpus"
let read_file path = In_channel.with_open_text path In_channel.input_all

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

let technique_of file = function
  | "group-safe" -> group_safe
  | "two-safe" -> two_safe
  | "eager-2pc" -> System.Two_pc
  | other -> Alcotest.fail (file ^ ": unknown technique directive " ^ other)

let replay file =
  let text = read_file (Filename.concat corpus_dir file) in
  let dirs = directives text in
  let find key = List.assoc_opt key dirs in
  let required key =
    match find key with
    | Some v -> v
    | None -> Alcotest.fail (file ^ ": missing directive " ^ key)
  in
  let technique = technique_of file (required "technique") in
  let shards = int_of_string (required "shards") in
  let cross_every = int_of_string (required "cross_every") in
  let schedule =
    match S.parse text with
    | Ok s -> s
    | Error e -> Alcotest.fail (file ^ ": " ^ e)
  in
  let cfg = SC.default_config ~shards ~cross_every technique in
  let o = SC.run cfg schedule in
  (match required "expect" with
  | "clean" -> check_bool (file ^ ": expected clean") false o.SC.failed
  | "failed" -> check_bool (file ^ ": expected a flagged run") true o.SC.failed
  | other -> Alcotest.fail (file ^ ": unknown expect directive " ^ other));
  o

let test_corpus () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sched")
    |> List.sort compare
  in
  check_bool "corpus holds at least three schedules" true (List.length files >= 3);
  List.iter (fun f -> ignore (replay f)) files

let test_corpus_shrunk_counterexample () =
  (* The committed counterexample must still be shrunk: dropping any
     single event makes the run pass, so the regression is minimal. *)
  let file = "whole-shard-crash.sched" in
  let text = read_file (Filename.concat corpus_dir file) in
  let schedule =
    match S.parse text with Ok s -> s | Error e -> Alcotest.fail e
  in
  let cfg = SC.default_config ~shards:2 ~cross_every:2 group_safe in
  check_bool "replay still fails" true (SC.run cfg schedule).SC.failed;
  List.iteri
    (fun i _ ->
      let events = List.filteri (fun j _ -> j <> i) schedule.S.events in
      let smaller =
        S.make ~servers:schedule.S.servers ~txs:schedule.S.txs ~spacing:schedule.S.spacing
          events
      in
      check_bool
        (Printf.sprintf "dropping event %d repairs the run" i)
        false (SC.run cfg smaller).SC.failed)
    schedule.S.events

(* ---- Obs registry through storm replays ---- *)

let test_replay_emits_same_shard_counters () =
  (* A replayed counterexample must emit exactly the counters of the
     direct run: the registry is part of the deterministic outcome. *)
  let text = read_file (Filename.concat corpus_dir "isolate-shard.sched") in
  let schedule = match S.parse text with Ok s -> s | Error e -> Alcotest.fail e in
  let cfg = SC.default_config ~shards:2 ~cross_every:2 two_safe in
  let export o =
    Obs.Export.to_json [ { Obs.Export.name = "shard-replay"; registry = o.SC.registry } ]
  in
  let direct = export (SC.run cfg schedule) in
  let replayed = export (SC.run cfg schedule) in
  check_bool "export non-trivial" true (String.length direct > 100);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check_bool "mentions shard.0. and shard.1. namespaces" true
    (contains direct "shard.0." && contains direct "shard.1.");
  Alcotest.(check string) "replay emits identical counters" direct replayed

let () =
  Alcotest.run "shard"
    [
      ( "shard_map",
        [
          Alcotest.test_case "pinned boundaries" `Quick test_map_pinned_boundaries;
          Alcotest.test_case "invalid arguments" `Quick test_map_invalid;
          Alcotest.test_case "participants of a transaction" `Quick test_shards_of_tx;
          QCheck_alcotest.to_alcotest prop_routing;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_zipf_deterministic;
          Alcotest.test_case "hottest-key frequency" `Quick test_zipf_hottest_frequency;
          Alcotest.test_case "Det_tbl-stable counting" `Quick test_zipf_det_tbl_stable;
          Alcotest.test_case "invalid arguments" `Quick test_zipf_invalid;
        ] );
      ( "generator",
        [
          Alcotest.test_case "id base and stride" `Quick test_generator_id_stride;
          Alcotest.test_case "defaults untouched" `Quick test_generator_defaults_unchanged;
          Alcotest.test_case "pick override" `Quick test_generator_pick_override;
        ] );
      ( "fast_path",
        [
          Alcotest.test_case "one shard reproduces the unsharded run" `Quick
            test_single_shard_reproduces_unsharded;
        ] );
      ( "cross_shard",
        [
          QCheck_alcotest.to_alcotest prop_fault_free_equivalence;
          Alcotest.test_case "registry counts the 2PC protocol" `Quick
            test_fault_free_registry_counters;
        ] );
      ( "nemesis",
        [
          Alcotest.test_case "whole-shard isolation, 2-safe clean" `Quick
            test_whole_shard_isolation_two_safe;
          Alcotest.test_case "cut across groups, 2-safe clean" `Quick
            test_cross_group_cut_two_safe;
          Alcotest.test_case "small storm budget, 2-safe clean" `Quick test_storm_two_safe_clean;
          Alcotest.test_case "vocabulary guards" `Quick test_schedule_vocabulary_guards;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "replay corpus re-certified" `Quick test_corpus;
          Alcotest.test_case "counterexample is shrunk" `Quick test_corpus_shrunk_counterexample;
        ] );
      ( "obs",
        [
          Alcotest.test_case "replay emits same shard counters" `Quick
            test_replay_emits_same_shard_counters;
        ] );
    ]
