(* Feeds compare.exe ten made-up pairs per end-to-end metric and checks
   each verdict, above all that a modelled metric worse on every pair by
   less than its bound is REGRESSED, and that the exit code is 1.

     compare_test.exe COMPARE_EXE BENCHMARK.json *)

let () =
  let compare_exe, spec_path =
    match Sys.argv with
    | [| _; exe; spec |] -> ((if Filename.is_implicit exe then Filename.concat Filename.current_dir_name exe else exe), spec)
    | _ ->
      prerr_endline "usage: compare_test.exe COMPARE_EXE BENCHMARK.json";
      exit 2
  in
  let spec = Json.read_file spec_path in
  let bound name =
    let m =
      List.find
        (fun m -> String.equal (Json.to_string (Json.member "name" m)) name)
        (Json.to_list (Json.member "end_to_end" spec))
    in
    Json.to_float (Json.member "bound" m)
  in
  (* metric -> (change value of pair k from parent value p, expected verdict) *)
  let cases =
    [
      ("commit_p50_ms", (fun _ p -> p *. (1. +. (bound "commit_p50_ms" /. 2.))), "REGRESSED");
      ("commit_p99_ms", (fun _ p -> p), "unchanged (exact)");
      ("slo_tps", (fun k p -> if k mod 2 = 0 then p *. 1.05 else p *. 0.99), "unresolved");
      ("goodput_tps", (fun _ p -> p *. 1.1), "improved");
      ("abort_ratio", (fun k p -> if k = 3 then p *. 1.01 else p), "REGRESSED");
      ("wall_s", (fun _ p -> p *. (1. +. (bound "wall_s" /. 2.))), "unchanged");
      ("setup_s", (fun _ p -> p *. 0.9), "improved");
      ("peak_rss_mb", (fun _ p -> p *. (1. +. (2. *. bound "peak_rss_mb"))), "REGRESSED");
    ]
  in
  let expected_names = List.map (fun (m : Spec.metric) -> m.name) Spec.end_to_end in
  if List.map (fun (n, _, _) -> n) cases <> expected_names then begin
    prerr_endline "compare_test: the cases do not cover Spec.end_to_end";
    exit 1
  end;
  let workload = (List.hd Spec.workloads).Spec.name in
  let root = Filename.temp_dir ~temp_dir:(Sys.getcwd ()) "compare_test" "" in
  let dir side = Filename.concat root side in
  let write side k values =
    let metric (name, v) =
      Printf.sprintf "%s: {\"value\": %s, \"unit\": \"x\"}" (Json.quote name) (Json.number v)
    in
    Out_channel.with_open_text
      (Filename.concat (dir side) (Printf.sprintf "%s-%d.json" workload k))
      (fun oc ->
        Printf.fprintf oc "a summary line\n{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {%s}}\n"
          (String.concat ", " (List.map metric values)))
  in
  Sys.mkdir (dir "parent") 0o755;
  Sys.mkdir (dir "change") 0o755;
  for k = 0 to 9 do
    (* A parent spread of about 0.5%, well inside every bound. *)
    let p = 100. *. (1. +. (0.001 *. float_of_int k)) in
    write "parent" k (List.map (fun (name, _, _) -> (name, p)) cases);
    write "change" k (List.map (fun (name, f, _) -> (name, f k p)) cases)
  done;
  let out = Filename.concat root "out.txt" in
  let code =
    Sys.command (Filename.quote_command compare_exe [ spec_path; dir "parent"; dir "change" ] ~stdout:out)
  in
  let rows = In_channel.with_open_text out In_channel.input_all |> String.split_on_char '\n' in
  (* A row: workload, metric, two "median [q1, q3]" columns, won, verdict. *)
  let verdict_of name =
    List.find_map
      (fun row ->
        match List.filter (fun t -> t <> "") (String.split_on_char ' ' row) with
        | w :: m :: rest when String.equal w workload && String.equal m name ->
          let rec after_won = function
            | t :: verdict when String.contains t '/' && not (String.contains t '[') ->
              Some (String.concat " " verdict)
            | _ :: tl -> after_won tl
            | [] -> None
          in
          after_won rest
        | _ -> None)
      rows
  in
  let failures =
    List.filter_map
      (fun (name, _, expected) ->
        match verdict_of name with
        | Some v when String.starts_with ~prefix:expected v -> None
        | Some v -> Some (Printf.sprintf "%s: expected %s, got %s" name expected v)
        | None -> Some (Printf.sprintf "%s: no row for %s" name workload))
      cases
  in
  let failures = if code = 1 then failures else Printf.sprintf "exit code %d, expected 1" code :: failures in
  List.iter
    (fun side ->
      Array.iter (fun f -> Sys.remove (Filename.concat (dir side) f)) (Sys.readdir (dir side));
      Sys.rmdir (dir side))
    [ "parent"; "change" ];
  Sys.remove out;
  Sys.rmdir root;
  match failures with
  | [] -> print_endline "compare ok"
  | fs ->
    List.iter prerr_endline fs;
    exit 1
