(* Named-metric registry: counters, max-gauges, and latency histograms.

   Hot paths resolve a metric to a handle once (at replica/broadcast
   creation time) and then pay one increment per event, so the layer can
   stay always-on. A registry is confined to one domain; cross-domain
   aggregation merges whole registries after the worker join, walking
   names in sorted order so the result is deterministic at any --jobs. *)

type counter = int ref
type gauge = int ref

type metric =
  | Counter of counter
  | Gauge_max of gauge
  | Hist of Histogram.t

type t = { metrics : (string, metric) Hashtbl.t }

let create () = { metrics = Hashtbl.create 64 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge_max _ -> "gauge"
  | Hist _ -> "histogram"

let mismatch name existing wanted =
  invalid_arg
    (Printf.sprintf "Obs.Registry: %s already registered as a %s, requested as a %s" name
       (kind_name existing) wanted)

let counter t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Counter r) -> r
  | Some m -> mismatch name m "counter"
  | None ->
    let r = ref 0 in
    Hashtbl.replace t.metrics name (Counter r);
    r

let gauge_max t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Gauge_max r) -> r
  | Some m -> mismatch name m "gauge"
  | None ->
    let r = ref 0 in
    Hashtbl.replace t.metrics name (Gauge_max r);
    r

let histogram t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Hist h) -> h
  | Some m -> mismatch name m "histogram"
  | None ->
    let h = Histogram.create () in
    Hashtbl.replace t.metrics name (Hist h);
    h

let inc r = incr r
let add r n = r := !r + n
let observe_max r v = if v > !r then r := v

let counter_value t name =
  match Hashtbl.find_opt t.metrics name with Some (Counter r) -> !r | _ -> 0

let gauge_value t name =
  match Hashtbl.find_opt t.metrics name with Some (Gauge_max r) -> !r | _ -> 0

let find_histogram t name =
  match Hashtbl.find_opt t.metrics name with Some (Hist h) -> Some h | _ -> None

type view = V_counter of int | V_gauge of int | V_hist of Histogram.t

(* Sorted by metric name, so every consumer — exporters, report tables,
   merges — enumerates in one canonical order. *)
let bindings t =
  Analysis.Det_tbl.bindings ~cmp:String.compare t.metrics
  |> List.map (fun (name, m) ->
         ( name,
           match m with
           | Counter r -> V_counter !r
           | Gauge_max r -> V_gauge !r
           | Hist h -> V_hist h ))

let merge_into ~into src =
  Analysis.Det_tbl.iter ~cmp:String.compare
    (fun name m ->
      match m with
      | Counter r -> add (counter into name) !r
      | Gauge_max r -> observe_max (gauge_max into name) !r
      | Hist h -> Histogram.merge_into ~into:(histogram into name) h)
    src.metrics

let merge_prefixed ~into ~prefix src =
  Analysis.Det_tbl.iter ~cmp:String.compare
    (fun name m ->
      let name = prefix ^ name in
      match m with
      | Counter r -> add (counter into name) !r
      | Gauge_max r -> observe_max (gauge_max into name) !r
      | Hist h -> Histogram.merge_into ~into:(histogram into name) h)
    src.metrics

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t
