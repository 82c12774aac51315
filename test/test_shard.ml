(* Tests for the sharded partial-replication layer: Shard_map routing
   (pinned boundaries + properties), the Zipf workload generator, the
   generator's sharded id/pick hooks, single-shard byte-for-byte
   reproduction of the unsharded engine, fault-free cross-shard 2PC
   equivalence with the merged-history oracle, one-shard checking
   equivalence with the explorer, the directed shard-aware nemesis
   scenarios, the replayed shard corpus, and the sharded obs export. *)

open Groupsafe
module SC = Shard.Shard_check
module E = Check.Explorer
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
    (fun () -> ignore (Workload.Zipf.create ~items:4 ~s:(-1.)));
  let z = Workload.Zipf.create ~items:4 ~s:1. in
  List.iter
    (fun u ->
      Alcotest.check_raises (Printf.sprintf "quantile %h" u)
        (Invalid_argument "Zipf.quantile: need 0 <= u < 1") (fun () ->
          ignore (Workload.Zipf.quantile z u)))
    [ 1.; -0x1p-53; Float.nan ]

(* The sampler before its guide table, kept as the reference: the
   cumulative table built with [Zipf.create]'s float operations, and a
   binary search for the smallest key whose mass exceeds [u]. *)
let reference_cum ~items ~s =
  let cum = Array.make items 0. in
  let total = ref 0. in
  for k = 0 to items - 1 do
    total := !total +. (1. /. Float.pow (float_of_int (k + 1)) s);
    cum.(k) <- !total
  done;
  let norm = !total in
  for k = 0 to items - 1 do
    cum.(k) <- cum.(k) /. norm
  done;
  cum.(items - 1) <- 1.0;
  cum

let reference_search cum u =
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* The guide table changes how a key is found, never which: every draw
   the binary search answered is answered the same, at the guide's bucket
   edges [j / items] and one ulp either side, at every cumulative mass and
   one ulp either side, at 0 and at the largest draw 1 - 2^-53, and over a
   random stream through [sample]. *)
let test_zipf_guide_exact () =
  List.iter
    (fun s ->
      List.iter
        (fun items ->
          let z = Workload.Zipf.create ~items ~s and cum = reference_cum ~items ~s in
          let check u =
            if u >= 0. && u < 1. then begin
              let got = Workload.Zipf.quantile z u and want = reference_search cum u in
              if got <> want then
                Alcotest.failf "items %d, s %g, u %h: guided %d, searched %d" items s u got want
            end
          in
          let around u =
            check (Float.pred u);
            check u;
            check (Float.succ u)
          in
          check 0.;
          check (1. -. 0x1p-53);
          for j = 0 to items - 1 do
            around (float_of_int j /. float_of_int items)
          done;
          Array.iter around cum;
          let r = Sim.Rng.create 11L and r' = Sim.Rng.create 11L in
          for _ = 1 to 20_000 do
            let got = Workload.Zipf.sample z r
            and want = reference_search cum (Sim.Rng.float r' 1.0) in
            if got <> want then
              Alcotest.failf "items %d, s %g: sampled %d, searched %d" items s got want
          done)
        [ 1; 7; 1_250; 10_000 ])
    [ 0.; 0.6; 1.1 ]

(* The first 1 000 keys at a fixed seed, recorded before the guide table
   replaced the binary search: shard-readmostly's per-shard range and
   skew, shardout's whole key space at its skew, and a small uniform one.
   A draw allocates nothing, in either build profile. *)
let test_zipf_pinned_stream () =
  List.iter
    (fun (items, s, digest, first) ->
      let z = Workload.Zipf.create ~items ~s and rng = Sim.Rng.create 2026L in
      let keys = List.init 1_000 (fun _ -> Workload.Zipf.sample z rng) in
      let name = Printf.sprintf "Zipf(%g) over %d keys" s items in
      Alcotest.(check (list int)) (name ^ ", first keys") first (List.filteri (fun i _ -> i < 8) keys);
      Alcotest.(check string)
        (name ^ ", 1 000 keys")
        digest
        (Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int keys)))))
    [
      (1_250, 0.6, "86f396601ed14e78106a6bbc59a5da52", [ 867; 215; 480; 136; 717; 586; 1114; 745 ]);
      (10_000, 1.1, "9c93f8f74b3d6c9c430a881bf46cdfbf", [ 1203; 17; 123; 8; 513; 236; 4720; 602 ]);
      (7, 0., "96f854d8efea6e7d55a014c4418e88b1", [ 6; 3; 4; 2; 5; 5; 6; 5 ]);
    ];
  let z = Workload.Zipf.create ~items:1_250 ~s:0.6 and rng = Sim.Rng.create 5L in
  let sum = ref (Workload.Zipf.sample z rng) in
  let before = Gc.minor_words () in
  for _ = 1 to 1024 do
    sum := !sum + Workload.Zipf.sample z rng
  done;
  let words = Gc.minor_words () -. before in
  (* As in test_sim's RNG test, the [Gc.minor_words] calls box a float
     themselves; anything per draw would cost >= 1024 words. *)
  check_bool (Printf.sprintf "no per-draw allocation (%.0f words)" words) true (words < 100.);
  check_bool "draws were used" true (!sum >= 0)

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

(* A coordinator is dropped once it answers its client, so after a
   fault-free run with cross traffic has drained none is left open; before
   the fix every cross-shard transaction stayed in its home shard's table
   for the whole run. *)
let test_finished_coordinators_dropped () =
  let shards = 3 and sps = small_params.Workload.Params.servers in
  let t =
    Shard.Sharded_system.create
      (Shard.Sharded_system.config ~seed:5L ~fd_config:Gcs.Failure_detector.light_config
         ~trace_enabled:false ~shards ~params:small_params group_safe)
  in
  let map = Shard.Sharded_system.map t in
  let txs = 24 and answered = ref 0 in
  for i = 0 to txs - 1 do
    let home = i mod shards in
    let lo, hi = SM.range map home and plo, _ = SM.range map ((home + 1) mod shards) in
    let ops = [ Db.Op.Read (lo + (i mod (hi - lo))); Db.Op.Write (lo + ((i + 1) mod (hi - lo)), i) ] in
    let ops = if i mod 2 = 0 then ops @ [ Db.Op.Write (plo + i, i) ] else ops in
    let tx = Db.Transaction.make ~id:i ~client:0 ops in
    Sim.Engine.schedule (Shard.Sharded_system.engine_of t home) ~delay:(st (5_000 * i)) (fun () ->
        Shard.Sharded_system.submit t ~on_response:(fun _ -> incr answered) ~delegate:(home * sps) tx)
  done;
  Shard.Sharded_system.run_for ~jobs:1 t (Sim.Sim_time.span_ms 3_000.);
  let cross =
    List.length (List.filter (fun a -> a.Shard.Sharded_system.g_cross) (Shard.Sharded_system.acked t))
  in
  check_int "every submission answered" txs !answered;
  check_int "every cross-shard transaction answered" (txs / 2) cross;
  check_int "no coordinator left open" 0 (Shard.Sharded_system.open_coordinators t)

(* Each shard's book lists its answers in the order the clients heard
   them, fast path and cross-shard alike, each with its submit instant.
   Cross-shard answers take two commit rounds, so later fast-path
   submissions overtake them and answer order is not submission order. *)
let test_acked_on_answer_order () =
  let shards = 2 and sps = small_params.Workload.Params.servers in
  let t =
    Shard.Sharded_system.create
      (Shard.Sharded_system.config ~seed:9L ~fd_config:Gcs.Failure_detector.light_config
         ~trace_enabled:false ~shards ~params:small_params group_safe)
  in
  let map = Shard.Sharded_system.map t in
  let txs = 16 in
  let submitted = Array.make txs Sim.Sim_time.zero in
  let heard = Array.make shards [] in
  for i = 0 to txs - 1 do
    let home = i mod shards in
    let engine = Shard.Sharded_system.engine_of t home in
    let lo, hi = SM.range map home and plo, _ = SM.range map ((home + 1) mod shards) in
    let ops = [ Db.Op.Read (lo + (i mod (hi - lo))); Db.Op.Write (lo + ((i + 3) mod (hi - lo)), i) ] in
    let ops = if i mod 4 < 2 then ops @ [ Db.Op.Write (plo + i, i) ] else ops in
    let tx = Db.Transaction.make ~id:i ~client:0 ops in
    Sim.Engine.schedule engine ~delay:(st (3_000 * i)) (fun () ->
        submitted.(i) <- Sim.Engine.now engine;
        Shard.Sharded_system.submit t ~delegate:(home * sps)
          ~on_response:(fun _ -> heard.(home) <- (i, Sim.Engine.now engine) :: heard.(home))
          tx)
  done;
  Shard.Sharded_system.run_for ~jobs:1 t (Sim.Sim_time.span_ms 3_000.);
  for home = 0 to shards - 1 do
    let book = Shard.Sharded_system.acked_on t home in
    let ids = List.map (fun g -> g.Shard.Sharded_system.g_tx) book in
    Alcotest.(check (list (pair int int)))
      "answers in the order the clients heard them"
      (List.rev_map (fun (i, at) -> (i, Sim.Sim_time.to_us at)) heard.(home))
      (List.map (fun g -> Shard.Sharded_system.(g.g_tx, Sim.Sim_time.to_us g.g_at)) book);
    check_bool "every answer carries its submit instant" true
      (List.for_all
         (fun g -> Shard.Sharded_system.(Sim.Sim_time.equal g.g_submitted submitted.(g.g_tx)))
         book);
    check_int "one answer per home submission" (txs / shards) (List.length book);
    check_bool "fast path and cross-shard answers" true
      (List.exists (fun g -> g.Shard.Sharded_system.g_cross) book
      && List.exists (fun g -> not g.Shard.Sharded_system.g_cross) book);
    check_bool "answer order is not submission order" false
      (ids = List.sort Int.compare ids)
  done

(* ---- One group: the sharded checker is the explorer's core ---- *)

(* At one shard, Shard_check.run is the explorer's interpreter, repair
   pass and storage + nemesis oracle stack plus the sharded glue (load,
   link blocks, cross-shard audit), so over the explorer's own storms it
   must reach exactly the explorer's verdicts. *)
let prop_one_group_equivalence =
  QCheck2.Test.make ~name:"one shard reaches the explorer's verdicts" ~count:40
    QCheck2.Gen.(pair (int_range 0 3) int64)
    (fun (tech_i, seed) ->
      let technique =
        List.nth [ group_safe; two_safe; System.Two_pc; System.Lazy Lazy_replica.One_safe_mode ]
          tech_i
      in
      let ecfg =
        { (E.default_config ~nemesis:true ~storage:true technique) with E.delays = false }
      in
      let schedule = E.random_schedule ecfg (Sim.Rng.create seed) ~max_events:4 in
      let scfg =
        { (SC.default_config ~shards:1 technique) with SC.params = ecfg.E.params; txs = ecfg.E.txs }
      in
      let e = E.run ecfg schedule in
      let s = SC.run scfg schedule in
      match (s.SC.shard_verdicts, e.E.durability, e.E.converge) with
      | [ v ], Some d, Some c ->
        let r = e.E.report and r' = v.SC.sv_report in
        e.E.failed = s.SC.failed
        && r.Safety_checker.acked_commits = r'.Safety_checker.acked_commits
        && r.Safety_checker.lost = r'.Safety_checker.lost
        && r.Safety_checker.group_failed = r'.Safety_checker.group_failed
        && d.Check.Durability.clean = v.SC.sv_durability.Check.Durability.clean
        && d.Check.Durability.lost = v.SC.sv_durability.Check.Durability.lost
        && c = v.SC.sv_converge
      | _ -> false)

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

let test_later_partition_replaces_cut () =
  (* A later Partition replaces the cut on every group, including one it
     names no member of: group 1's cut isolating its server 0 (global 3)
     must be gone once a cut naming only group 0's server 0 follows. *)
  let groups = Array.init 2 (fun _ -> System.create ~seed:7L ~trace_enabled:false two_safe) in
  let sps = System.n_servers groups.(0) in
  let sched =
    S.make ~servers:(2 * sps) ~txs:1 ~spacing:(st 5000)
      [
        { S.at = st 1000; kind = S.Partition [ [ sps ] ] };
        { S.at = st 2000; kind = S.Partition [ [ 0 ] ] };
      ]
  in
  E.interpret ~holds:(Array.make (2 * sps) Sim.Sim_time.span_zero) groups sched;
  let reachable g a b =
    let sys = groups.(g) in
    Net.Network.reachable (System.network sys) (System.server_id sys a) (System.server_id sys b)
  in
  let run_to us =
    Array.iter (fun sys -> Sim.Engine.run ~until:(Sim.Sim_time.of_us us) (System.engine sys)) groups
  in
  run_to 1500;
  check_bool "group 1 cut by the first partition" false (reachable 1 0 1);
  run_to 2500;
  check_bool "group 1 cut replaced" true (reachable 1 0 1);
  check_bool "group 0 cut by the second partition" false (reachable 0 0 1)

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

let technique_of file name =
  match List.find_opt (fun t -> System.technique_name t = name) System.all_techniques with
  | Some t -> t
  | None -> Alcotest.fail (file ^ ": unknown technique directive " ^ name)

let replay file =
  let text = read_file (Filename.concat corpus_dir file) in
  let dirs = S.directives text in
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
          Alcotest.test_case "guide table answers as the binary search" `Quick
            test_zipf_guide_exact;
          Alcotest.test_case "pinned stream, no allocation" `Quick test_zipf_pinned_stream;
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
          Alcotest.test_case "acked_on lists answers in answer order" `Quick
            test_acked_on_answer_order;
          Alcotest.test_case "finished coordinators are dropped" `Quick
            test_finished_coordinators_dropped;
        ] );
      ("one_group", [ QCheck_alcotest.to_alcotest prop_one_group_equivalence ]);
      ( "nemesis",
        [
          Alcotest.test_case "whole-shard isolation, 2-safe clean" `Quick
            test_whole_shard_isolation_two_safe;
          Alcotest.test_case "cut across groups, 2-safe clean" `Quick
            test_cross_group_cut_two_safe;
          Alcotest.test_case "later partition replaces the cut" `Quick
            test_later_partition_replaces_cut;
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
