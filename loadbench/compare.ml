(* Paired parent/change comparison of benchmark results.

     compare.exe BENCHMARK.json PARENT_DIR CHANGE_DIR

   Each directory holds one file per run, named <workload>-<pair>.json,
   whose last line is the run's result object (pairs.sh writes them); pair
   k of both sides ran with the same seed. For every workload and
   end-to-end metric it prints both sides' medians and quartiles, the share
   of pairs the change won (ties count for neither) and a verdict. Fewer
   than 10 pairs is always unresolved.

   A modelled metric repeats exactly on one seed, so it is judged pair by
   pair, and its bound does not excuse a worse pair:
   - unchanged: every pair exactly equal;
   - regressed: some pair worse and none better, or the change's median
     worse than the parent's by more than the bound;
   - improved: at least 9 of 10 pairs won, none worse, and the medians
     differ by more than the parent's interquartile range;
   - unresolved: any other mix of better and worse pairs.

   A wall-clock metric is judged on its medians:
   - regressed: the change's median is worse than the parent's by more than
     the metric's bound;
   - improved: at least 9 of 10 pairs won and the medians differ by more
     than the parent's interquartile range;
   - unresolved: the parent's own spread is wider than the bound and the
     change did not beat every parent run;
   - unchanged: otherwise.

   An improvement with more failed operations on the change's side is
   unresolved. Exits 1 when any metric regressed. *)

(* Python's statistics.quantiles(data, n=4), the default exclusive method,
   so the numbers match what the benchmark contract computes. *)
let quartiles xs =
  let d = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length d in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let read_result path =
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  match List.rev lines with
  | [] -> None
  | last :: _ -> (
    match Json.parse last with
    | r -> Some r
    | exception Json.Error _ -> None)

let metric_value r name =
  match Json.member name (Json.member "metrics" r) with
  | v -> Some (Json.to_float (Json.member "value" v))
  | exception Json.Error _ -> None

let () =
  match Sys.argv with
  | [| _; spec_path; parent_dir; change_dir |] ->
    let spec = Json.read_file spec_path in
    let workloads =
      List.map (fun w -> Json.to_string (Json.member "name" w)) (Json.to_list (Json.member "workloads" spec))
    in
    let metrics = Json.to_list (Json.member "end_to_end" spec) in
    let regressed = ref 0 in
    Printf.printf "%-18s %-15s %-32s %-32s %-9s %s\n" "workload" "metric" "parent median [q1, q3]"
      "change median [q1, q3]" "won" "verdict";
    List.iter
      (fun w ->
        (* Pair k exists when both sides have a parseable result for it. *)
        let pairs =
          List.filter_map
            (fun k ->
              let file dir = Filename.concat dir (Printf.sprintf "%s-%d.json" w k) in
              if Sys.file_exists (file parent_dir) && Sys.file_exists (file change_dir) then
                match (read_result (file parent_dir), read_result (file change_dir)) with
                | Some p, Some c -> Some (p, c)
                | _ -> None
              else None)
            (List.init 1000 Fun.id)
        in
        let failed r = int_of_float (Json.to_float (Json.member "failed" r)) in
        let more_failures = List.exists (fun (p, c) -> failed c > failed p) pairs in
        List.iter
          (fun m ->
            let name = Json.to_string (Json.member "name" m) in
            let lower = String.equal (Json.to_string (Json.member "better" m)) "lower" in
            let bound = Json.to_float (Json.member "bound" m) in
            let modelled =
              List.exists (fun (s : Spec.metric) -> String.equal s.name name && s.modelled) Spec.end_to_end
            in
            let values =
              List.filter_map
                (fun (p, c) ->
                  match (metric_value p name, metric_value c name) with
                  | Some a, Some b -> Some (a, b)
                  | _ -> None)
                pairs
            in
            let ps = List.map fst values and cs = List.map snd values in
            let n = List.length values in
            let better a b = if lower then b < a else b > a in
            let wins = List.length (List.filter (fun (a, b) -> better a b) values) in
            let losses = List.length (List.filter (fun (a, b) -> better b a) values) in
            let q1p, mp, q3p = quartiles ps and q1c, mc, q3c = quartiles cs in
            (* Positive when the change is better. *)
            let gain = if lower then mp -. mc else mc -. mp in
            let every_better =
              n > 0 && List.for_all (fun b -> List.for_all (fun a -> better a b) ps) cs
            in
            let regression () =
              incr regressed;
              "REGRESSED"
            in
            let improvement () =
              if more_failures then "unresolved (more operations failed)" else "improved"
            in
            let won = wins * 10 >= 9 * n && gain > q3p -. q1p in
            let verdict =
              if n < 10 then "unresolved (fewer than 10 pairs)"
              else if modelled then
                if wins = 0 && losses = 0 then "unchanged (exact)"
                else if (wins = 0 && losses > 0) || -.gain > bound *. Float.abs mp then regression ()
                else if losses = 0 && won then improvement ()
                else Printf.sprintf "unresolved (%d pairs better, %d worse)" wins losses
              else if -.gain > bound *. Float.abs mp then regression ()
              else if won then improvement ()
              else if q3p -. q1p > bound *. Float.abs mp && not every_better then
                "unresolved (spread wider than bound)"
              else "unchanged"
            in
            Printf.printf "%-18s %-15s %-32s %-32s %-9s %s\n" w name
              (Printf.sprintf "%.4g [%.4g, %.4g]" mp q1p q3p)
              (Printf.sprintf "%.4g [%.4g, %.4g]" mc q1c q3c)
              (Printf.sprintf "%d/%d" wins n) verdict)
          metrics)
      workloads;
    if !regressed > 0 then exit 1
  | _ ->
    prerr_endline "usage: compare.exe BENCHMARK.json PARENT_DIR CHANGE_DIR";
    exit 2
