(* Tests for the deterministic observability layer (lib/obs): histogram
   algebra and quantile bracketing, registry merge semantics, exporter
   formatting, sampler behaviour — and the layer's core contract, that
   observing a simulation never changes it. *)

module H = Obs.Histogram
module R = Obs.Registry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let hist_of values =
  let h = H.create () in
  List.iter (H.add h) values;
  h

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

(* ---- Histogram units ---- *)

let test_hist_empty () =
  let h = H.create () in
  check_int "count" 0 (H.count h);
  check_int "sum" 0 (H.sum h);
  check_int "min" 0 (H.min_value h);
  check_int "max" 0 (H.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 0. (H.mean h);
  check_bool "no buckets" true (H.buckets h = []);
  Alcotest.check_raises "quantile on empty"
    (Invalid_argument "Histogram.quantile_bounds: empty histogram") (fun () ->
      ignore (H.quantile_bounds h 0.5))

let test_hist_rejects_bad_inputs () =
  let h = hist_of [ 1 ] in
  Alcotest.check_raises "negative sample" (Invalid_argument "Histogram.add: negative value")
    (fun () -> H.add h (-1));
  Alcotest.check_raises "q above 1"
    (Invalid_argument "Histogram.quantile_bounds: q outside [0, 1]") (fun () ->
      ignore (H.quantile_bounds h 1.5))

let test_hist_exact_below_16 () =
  let h = hist_of [ 0; 1; 15; 15 ] in
  Alcotest.(check (list (triple int int int)))
    "width-1 buckets"
    [ (0, 0, 1); (1, 1, 1); (15, 15, 2) ]
    (H.buckets h)

let test_hist_octave_bucket () =
  (* 100 lives in octave [64, 127], split into 16 sub-buckets of width 4:
     sub-bucket 9 is [100, 103]. *)
  let h = hist_of [ 100 ] in
  Alcotest.(check (list (triple int int int))) "sub-bucket" [ (100, 103, 1) ] (H.buckets h);
  (* The quantile bracket clamps to the observed min/max, so a singleton
     histogram brackets exactly. *)
  Alcotest.(check (pair int int)) "clamped bracket" (100, 100) (H.quantile_bounds h 0.5)

let test_hist_stats () =
  let h = hist_of [ 10; 20; 30 ] in
  check_int "count" 3 (H.count h);
  check_int "sum" 60 (H.sum h);
  check_int "min" 10 (H.min_value h);
  check_int "max" 30 (H.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 20. (H.mean h)

(* ---- Histogram properties ---- *)

let gen_values = QCheck2.Gen.(list_size (int_range 0 120) (int_bound 2_000_000))

let prop_merge_assoc_comm =
  QCheck2.Test.make ~name:"merge is associative and commutative, empty is neutral" ~count:200
    QCheck2.Gen.(triple gen_values gen_values gen_values)
    (fun (a, b, c) ->
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      H.equal (H.merge ha (H.merge hb hc)) (H.merge (H.merge ha hb) hc)
      && H.equal (H.merge ha hb) (H.merge hb ha)
      && H.equal (H.merge ha (H.create ())) ha)

let prop_merge_equals_concat =
  QCheck2.Test.make ~name:"merge equals the histogram of the concatenation" ~count:200
    QCheck2.Gen.(pair gen_values gen_values)
    (fun (a, b) -> H.equal (H.merge (hist_of a) (hist_of b)) (hist_of (a @ b)))

let prop_quantile_brackets_exact =
  QCheck2.Test.make
    ~name:"quantile bounds bracket the exact order statistic within one bucket" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_range 1 200) (int_bound 3_000_000)) (float_bound_inclusive 1.))
    (fun (values, q) ->
      let h = hist_of values in
      let sorted = List.sort compare values in
      let n = List.length values in
      let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
      let exact = List.nth sorted (rank - 1) in
      let lo, hi = H.quantile_bounds h q in
      (* Bracketing, plus the relative-error contract: one sub-bucket is at
         most 1/16 of its own lower bound wide (exact below 16). *)
      lo <= exact && exact <= hi && 16 * (hi - lo) <= lo)

(* ---- Registry ---- *)

let test_registry_basics () =
  let r = R.create () in
  let c = R.counter r "txn.committed" in
  R.inc c;
  R.add c 2;
  let g = R.gauge_max r "queue.max" in
  R.observe_max g 7;
  R.observe_max g 3;
  H.add (R.histogram r "lat.us") 5;
  check_int "counter" 3 (R.counter_value r "txn.committed");
  check_int "absent counter" 0 (R.counter_value r "nope");
  check_int "gauge keeps max" 7 (R.gauge_value r "queue.max");
  check_int "hist count" 1
    (match R.find_histogram r "lat.us" with Some h -> H.count h | None -> -1);
  (* find-or-create returns the same handle *)
  R.inc (R.counter r "txn.committed");
  check_int "same counter" 4 (R.counter_value r "txn.committed");
  Alcotest.(check (list string))
    "bindings sorted by name"
    [ "lat.us"; "queue.max"; "txn.committed" ]
    (List.map fst (R.bindings r))

let test_registry_kind_mismatch () =
  let r = R.create () in
  ignore (R.counter r "m");
  let raised = try ignore (R.histogram r "m"); false with Invalid_argument _ -> true in
  check_bool "kind mismatch rejected" true raised

let build_registry (counts, samples) =
  let r = R.create () in
  let ca = R.counter r "a.count" and cb = R.counter r "b.count" in
  List.iter (fun v -> if v mod 2 = 0 then R.inc ca else R.add cb v) counts;
  let g = R.gauge_max r "q.max" in
  let h = R.histogram r "lat.us" in
  List.iter
    (fun v ->
      R.observe_max g v;
      H.add h v)
    samples;
  r

let export_bytes r = Obs.Export.to_json [ { Obs.Export.name = "m"; registry = r } ]

let prop_registry_merge_commutes =
  QCheck2.Test.make ~name:"registry merge is order-independent (exported bytes)" ~count:100
    QCheck2.Gen.(
      triple
        (pair (small_list (int_bound 50)) gen_values)
        (pair (small_list (int_bound 50)) gen_values)
        (pair (small_list (int_bound 50)) gen_values))
    (fun (sa, sb, sc) ->
      let build3 (x, y, z) = R.merge (build_registry x) (R.merge (build_registry y) (build_registry z)) in
      (* Fold the same three per-domain registries in every grouping and
         order: counters sum, gauges max, histograms merge bucket-wise —
         all associative and commutative, so the export is one byte
         string. *)
      let abc = build3 (sa, sb, sc) in
      let cab = build3 (sc, sa, sb) in
      let merged_flat = R.merge (R.merge (build_registry sa) (build_registry sb)) (build_registry sc) in
      export_bytes abc = export_bytes cab && export_bytes abc = export_bytes merged_flat)

(* ---- Exporters ---- *)

let sample_registry () =
  let r = R.create () in
  R.add (R.counter r "txn.committed") 3;
  R.observe_max (R.gauge_max r "queue.max") 7;
  let h = R.histogram r "lat.us" in
  List.iter (H.add h) [ 1; 5; 300 ];
  r

let test_export_json_shape () =
  let json = Obs.Export.to_json [ { Obs.Export.name = "test"; registry = sample_registry () } ] in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle json))
    [
      "\"schema\":\"groupsafe-metrics/1\"";
      "\"name\":\"test\"";
      "\"txn.committed\":3";
      "\"queue.max\":{\"max\":7}";
      "\"lat.us\":{\"count\":3,\"sum\":306,\"min\":1,\"max\":300";
    ]

let test_export_csv_shape () =
  let csv = Obs.Export.to_csv [ { Obs.Export.name = "test"; registry = sample_registry () } ] in
  (match String.split_on_char '\n' csv with
  | header :: _ ->
    check_string "csv header"
      "section,metric,kind,value,count,sum,min,max,p50_lo,p50_hi,p95_lo,p95_hi,p99_lo,p99_hi"
      header
  | [] -> Alcotest.fail "empty csv");
  check_bool "counter row" true (contains ~needle:"test,txn.committed,counter,3," csv);
  check_bool "gauge row" true (contains ~needle:"test,queue.max,gauge,7," csv);
  check_bool "histogram row" true (contains ~needle:"test,lat.us,histogram,,3,306,1,300," csv)

let test_export_same_registry_same_bytes () =
  let a = sample_registry () and b = sample_registry () in
  check_string "equal registries serialise identically" (export_bytes a) (export_bytes b)

let test_chrome_trace_format () =
  let tr = Obs.Tracer.create ~enabled:true () in
  Obs.Tracer.complete tr ~name:"a\"b" ~cat:"c" ~tid:1 ~ts:(Sim.Sim_time.of_us 5)
    ~dur:(Sim.Sim_time.span_us 7)
    ~args:[ ("k", "v") ]
    ();
  Obs.Tracer.instant tr ~name:"i" ~cat:"c" ~tid:2 ~ts:(Sim.Sim_time.of_us 9) ();
  let s =
    Obs.Chrome_trace.to_string
      [ { Obs.Chrome_trace.pid = 3; name = "proc\n1"; events = Obs.Tracer.events tr } ]
  in
  check_string "exact trace bytes"
    ("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
   ^ "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,\"args\":{\"name\":\"proc\\n1\"}}"
   ^ ",\n{\"name\":\"a\\\"b\",\"cat\":\"c\",\"ph\":\"X\",\"pid\":3,\"tid\":1,\"ts\":5,\"dur\":7,\"args\":{\"k\":\"v\"}}"
   ^ ",\n{\"name\":\"i\",\"cat\":\"c\",\"ph\":\"i\",\"s\":\"t\",\"pid\":3,\"tid\":2,\"ts\":9}"
   ^ "\n]}\n")
    s

let test_tracer_disabled_records_nothing () =
  let tr = Obs.Tracer.create ~enabled:false () in
  Obs.Tracer.complete tr ~name:"n" ~cat:"c" ~tid:0 ~ts:(Sim.Sim_time.of_us 1)
    ~dur:(Sim.Sim_time.span_us 1) ();
  Obs.Tracer.instant tr ~name:"n" ~cat:"c" ~tid:0 ~ts:(Sim.Sim_time.of_us 1) ();
  check_bool "no events" true (Obs.Tracer.events tr = [])

(* The per-transaction helpers the replicas call record exactly the entry
   and span of the eager form they replaced, so traced output is unchanged. *)
let test_tx_helpers_match_eager_form () =
  let e = Sim.Engine.create ~seed:1L () in
  let a = Sim.Trace.create e and b = Sim.Trace.create e in
  Sim.Trace.record_tx a ~source:"S1" ~kind:"deliver" 42;
  Sim.Trace.record b ~source:"S1" ~kind:"deliver" [ ("tx", "42") ];
  Sim.Trace.record_tx_outcome a ~source:"S2" ~kind:"respond" (-3) ~outcome:"aborted";
  Sim.Trace.record b ~source:"S2" ~kind:"respond" [ ("tx", "-3"); ("outcome", "aborted") ];
  check_string "same trace" (Sim.Trace.render b) (Sim.Trace.render a);
  let ta = Obs.Tracer.create ~enabled:true () and tb = Obs.Tracer.create ~enabled:true () in
  let ts = Sim.Sim_time.of_us 5 and dur = Sim.Sim_time.span_us 7 in
  Obs.Tracer.complete_tx ta ~name:"wal" ~cat:"group-safe" ~tid:1 ~ts ~dur 42;
  Obs.Tracer.complete tb ~name:"wal" ~cat:"group-safe" ~tid:1 ~ts ~dur ~args:[ ("tx", "42") ] ();
  let render tr =
    Obs.Chrome_trace.to_string
      [ { Obs.Chrome_trace.pid = 1; name = "p"; events = Obs.Tracer.events tr } ]
  in
  check_string "same span" (render tb) (render ta)

(* With both sinks created disabled, the trace and span helpers cost one
   branch per call: no attribute string, pair or list cell is built. The
   eager form they replaced builds all three before the sink looks at its
   flag; it is measured too, so the probe is seen to register allocation.
   As in test_sim's RNG test, the [Gc.minor_words] calls box a float
   themselves; anything per call would cost >= 1024 words. *)
let test_disabled_sinks_allocate_nothing () =
  let e = Sim.Engine.create ~seed:1L () in
  let trace = Sim.Trace.create ~enabled:false e in
  let tracer = Obs.Tracer.create ~enabled:false () in
  let ts = Sim.Sim_time.of_us 5 and dur = Sim.Sim_time.span_us 7 in
  let words step =
    step 0;
    let before = Gc.minor_words () in
    for tx = 1 to 1024 do
      step tx
    done;
    Gc.minor_words () -. before
  in
  let nothing name step = check_bool (name ^ " allocates nothing") true (words step < 100.) in
  nothing "Trace.record_tx" (fun tx -> Sim.Trace.record_tx trace ~source:"S1" ~kind:"deliver" tx);
  nothing "Trace.record_tx_outcome" (fun tx ->
      Sim.Trace.record_tx_outcome trace ~source:"S1" ~kind:"respond" tx ~outcome:"committed");
  nothing "Tracer.complete_tx" (fun tx ->
      Obs.Tracer.complete_tx tracer ~name:"wal" ~cat:"group-safe" ~tid:1 ~ts ~dur tx);
  (* The replicas' own recorders, on a system with both sinks off. *)
  let sys =
    Groupsafe.System.create ~trace_enabled:false
      (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode)
  in
  let r =
    match Groupsafe.System.dsm_replica sys 0 with
    | Some d -> Groupsafe.Dsm_replica.replica d
    | None -> Alcotest.fail "no DSM replica"
  in
  let h = H.create () and until = Sim.Sim_time.add ts dur in
  nothing "Replica.tr_tx" (fun tx -> Groupsafe.Replica.tr_tx r "deliver" tx);
  nothing "Replica.tr_outcome" (fun tx ->
      Groupsafe.Replica.tr_outcome r "respond" tx Db.Testable_tx.Committed);
  nothing "Replica.observe_phase" (fun tx ->
      Groupsafe.Replica.observe_phase r h ~name:"wal" ~tx ~from_:ts ~until);
  check_int "every phase sampled" 1025 (H.count h);
  check_int "nothing traced" 0 (Sim.Trace.length (Groupsafe.System.trace sys));
  check_bool "no replica spans" true
    (Obs.Tracer.events (Groupsafe.System.obs_tracer sys) = []);
  let eager tx = Sim.Trace.record trace ~source:"S1" ~kind:"deliver" [ ("tx", string_of_int tx) ] in
  check_bool "the eager form allocates per call" true (words eager >= 1024. *. 6.);
  check_int "nothing recorded" 0 (Sim.Trace.length trace);
  check_bool "no spans" true (Obs.Tracer.events tracer = [])

(* ---- Sampler ---- *)

let test_sampler_records_and_validates () =
  let e = Sim.Engine.create ~seed:1L () in
  let cpu = Sim.Resource.create e ~name:"cpu" ~servers:1 in
  Alcotest.check_raises "zero interval" (Invalid_argument "Obs.Sampler.attach: zero interval")
    (fun () ->
      Obs.Sampler.attach e ~registry:(R.create ()) ~name:"cpu" ~every:Sim.Sim_time.span_zero cpu);
  let r = R.create () in
  Obs.Sampler.attach e ~registry:r ~name:"res.cpu" ~every:(Sim.Sim_time.span_ms 10.) cpu;
  (* Keep the resource half busy: 5 ms of service every 10 ms. *)
  let rec load () =
    Sim.Resource.request cpu ~duration:(Sim.Sim_time.span_ms 5.) (fun () ->
        Sim.Engine.schedule e ~delay:(Sim.Sim_time.span_ms 5.) load)
  in
  load ();
  Sim.Engine.run e ~until:(Sim.Sim_time.of_us 100_000);
  let samples =
    match R.find_histogram r "res.cpu.queue" with Some h -> H.count h | None -> 0
  in
  check_int "one sample per tick" 10 samples;
  let util =
    match R.find_histogram r "res.cpu.util_permille" with Some h -> H.count h | None -> 0
  in
  check_int "utilisation sampled" 10 util;
  check_bool "utilisation in [0, 1000]" true
    (match R.find_histogram r "res.cpu.util_permille" with
    | Some h -> H.min_value h >= 0 && H.max_value h <= 1000
    | None -> false)

(* ---- The layer's core contract: observing never perturbs ---- *)

let obs_params =
  { Workload.Params.table4 with Workload.Params.servers = 3; items = 200 }

let run_scenario ~sampled ~traced =
  let sys =
    Groupsafe.System.create ~seed:5L ~params:obs_params ~obs_trace:traced
      (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode)
  in
  if sampled then Groupsafe.System.attach_obs_samplers sys;
  for i = 0 to 7 do
    let tx =
      Db.Transaction.make ~id:(500 + i) ~client:(i mod 3)
        [ Db.Op.Read (2 * i); Db.Op.Write (i, i); Db.Op.Write (i + 30, 1) ]
    in
    Groupsafe.System.submit sys ~delegate:(i mod 3) tx;
    Groupsafe.System.run_for sys (Sim.Sim_time.span_ms 35.)
  done;
  Groupsafe.System.run_for sys (Sim.Sim_time.span_s 1.);
  List.map
    (fun a ->
      Printf.sprintf "%d:%s:%d" a.Groupsafe.System.tx
        (match a.Groupsafe.System.outcome with
        | Db.Testable_tx.Committed -> "c"
        | Db.Testable_tx.Aborted -> "a")
        (Sim.Sim_time.to_us a.Groupsafe.System.at))
    (Groupsafe.System.acked sys)

let test_observation_does_not_perturb () =
  let bare = run_scenario ~sampled:false ~traced:false in
  let full = run_scenario ~sampled:true ~traced:true in
  check_bool "scenario acknowledged transactions" true (bare <> []);
  Alcotest.(check (list string)) "acks identical with samplers and tracing on" bare full

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        Alcotest.test_case "empty" `Quick test_hist_empty
        :: Alcotest.test_case "bad inputs" `Quick test_hist_rejects_bad_inputs
        :: Alcotest.test_case "exact below 16" `Quick test_hist_exact_below_16
        :: Alcotest.test_case "octave bucket" `Quick test_hist_octave_bucket
        :: Alcotest.test_case "stats" `Quick test_hist_stats
        :: qsuite [ prop_merge_assoc_comm; prop_merge_equals_concat; prop_quantile_brackets_exact ]
      );
      ( "registry",
        Alcotest.test_case "basics" `Quick test_registry_basics
        :: Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch
        :: qsuite [ prop_registry_merge_commutes ] );
      ( "export",
        [
          Alcotest.test_case "json shape" `Quick test_export_json_shape;
          Alcotest.test_case "csv shape" `Quick test_export_csv_shape;
          Alcotest.test_case "byte stability" `Quick test_export_same_registry_same_bytes;
          Alcotest.test_case "chrome trace format" `Quick test_chrome_trace_format;
          Alcotest.test_case "disabled tracer" `Quick test_tracer_disabled_records_nothing;
          Alcotest.test_case "tx helpers match the eager form" `Quick
            test_tx_helpers_match_eager_form;
          Alcotest.test_case "disabled sinks allocate nothing" `Quick
            test_disabled_sinks_allocate_nothing;
        ] );
      ("sampler", [ Alcotest.test_case "records and validates" `Quick test_sampler_records_and_validates ]);
      ( "neutrality",
        [ Alcotest.test_case "observation does not perturb" `Quick test_observation_does_not_perturb ]
      );
    ]
