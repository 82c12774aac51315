(* Tests for the static-analysis pass (Lint) and the deterministic
   iteration helpers (Analysis.Det_tbl, Analysis.Int_tbl).

   The fixture corpus under lint_fixtures/ is additionally covered by a
   golden-output dune rule (lint_fixtures.expected); here we test the
   engine's semantics directly on inline sources — rule detection, the
   [@lint.allow] suppression scoping, and its failure modes — plus the
   Det_tbl regression: identical output from differently-populated but
   equal tables. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let lint ?(lib = true) src = Lint.check_source ~file:"inline.ml" ~lib src
let rules_of fs = List.map (fun f -> f.Lint.rule) fs

let check_rules msg expected src =
  Alcotest.(check (list string)) msg expected (rules_of (lint src))

(* ---- rule detection ---- *)

let test_d_random () =
  check_rules "Random flagged" [ "D-random" ] "let f () = Random.int 6";
  check_rules "Stdlib.Random flagged" [ "D-random" ] "let f () = Stdlib.Random.bits ()";
  check_rules "Sim.Rng style untouched" [] "let f rng = Sim.Rng.int rng 6"

let test_d_wallclock () =
  check_rules "gettimeofday flagged" [ "D-wallclock" ] "let f () = Unix.gettimeofday ()";
  check_rules "Sys.time flagged" [ "D-wallclock" ] "let f () = Sys.time ()";
  check_rules "Sys.getenv untouched" [] "let f () = Sys.getenv \"HOME\""

let test_d_hashtbl () =
  check_rules "iter flagged" [ "D-hashtbl-iter" ] "let f t = Hashtbl.iter g t";
  check_rules "fold flagged" [ "D-hashtbl-iter" ] "let f t = Hashtbl.fold g t 0";
  check_rules "find untouched" [] "let f t = Hashtbl.find_opt t 3"

let test_d_float_eq () =
  check_rules "float literal =" [ "D-float-eq" ] "let f x = x = 1.0";
  check_rules "float literal <>" [ "D-float-eq" ] "let f x = 0. <> x";
  check_rules "int literal untouched" [] "let f x = x = 1";
  check_rules "<= untouched" [] "let f x = x <= 1.0"

let test_p_toplevel_mutable () =
  check_rules "toplevel ref" [ "P-toplevel-mutable" ] "let c = ref 0";
  check_rules "toplevel Hashtbl" [ "P-toplevel-mutable" ]
    "let t : (int, int) Hashtbl.t = Hashtbl.create 8";
  check_rules "toplevel Buffer" [ "P-toplevel-mutable" ] "let b = Buffer.create 64";
  check_rules "Atomic is the fix" [] "let c = Atomic.make 0";
  check_rules "function-local ref untouched" [] "let f () = let c = ref 0 in incr c; !c";
  (* The rule is library-only: executables own their process. *)
  check_int "bin files exempt" 0 (List.length (lint ~lib:false "let c = ref 0"))

let test_h_ignored_result () =
  check_rules "Result.map ignored" [ "H-ignored-result" ]
    "let f r = ignore (Result.map succ r)";
  check_rules "annotated result ignored" [ "H-ignored-result" ]
    "let f r = ignore (r : (int, string) result)";
  check_rules "Error construction ignored" [ "H-ignored-result" ]
    "let f x = ignore (Error x)";
  check_rules "unit ignore untouched" [] "let f g = ignore (g ())"

let test_h_catchall () =
  check_rules "wildcard flagged" [ "H-catchall-exn" ] "let f g = try g () with _ -> ()";
  check_rules "named swallow flagged" [ "H-catchall-exn" ]
    "let f g = try g () with e -> print_string (Printexc.to_string e)";
  check_rules "re-raise untouched" []
    "let f g = try g () with Not_found -> () | e -> raise e";
  check_rules "specific exception untouched" [] "let f g = try g () with Exit -> ()"

let test_h_missing_mli () =
  (* Exercised through check_file: bad_missing_mli.ml has no sibling
     interface, its neighbours do. *)
  let fs = Lint.check_file ~lib:true "lint_fixtures/bad_missing_mli.ml" in
  Alcotest.(check (list string)) "missing interface" [ "H-missing-mli" ] (rules_of fs);
  let fs = Lint.check_file ~lib:true "lint_fixtures/bad_random.ml" in
  check_bool "sibling .mli satisfies the rule" false
    (List.mem "H-missing-mli" (rules_of fs))

(* ---- suppression attribute ---- *)

let test_allow_suppresses () =
  check_rules "expression scope" []
    {|let f () = (Random.int 6 [@lint.allow "D-random" "test rig needs raw entropy"])|};
  check_rules "binding scope" []
    {|let f () = Random.int 6 [@@lint.allow "D-random" "whole binding justified"]|};
  check_rules "file scope" []
    {|[@@@lint.allow "D-random" "fixture file"]
let f () = Random.int 6
let g () = Random.bool ()|}

let test_allow_is_scoped () =
  (* The allow covers one expression; the second use still fires. *)
  let fs =
    lint
      {|let f () = (Random.int 6 [@lint.allow "D-random" "this one is fine"])
let g () = Random.int 6|}
  in
  Alcotest.(check (list string)) "second use still fires" [ "D-random" ] (rules_of fs);
  check_int "and it is g's line" 2 (List.hd fs).Lint.line

let test_allow_wrong_rule_does_not_suppress () =
  check_rules "allow names a different rule"
    [ "D-random" ]
    {|let f () = (Random.int 6 [@lint.allow "D-wallclock" "mismatched id"])|}

let test_unknown_rule_id () =
  check_rules "unknown id is an error" [ "L-unknown-rule" ]
    {|let f () = (42 [@lint.allow "X-bogus" "no such rule"])|};
  (* L-rules themselves cannot be suppressed away. *)
  check_rules "meta rules not suppressible" [ "L-unknown-rule" ]
    {|let f () = (42 [@lint.allow "L-unknown-rule" "nice try"])|}

let test_missing_reason () =
  (* Without a reason the attribute is malformed AND the underlying finding
     still fires: a suppression is only valid when it is reviewable. *)
  let fs = lint {|let f () = (Random.int 6 [@lint.allow "D-random"])|} in
  Alcotest.(check (list string)) "malformed + original"
    [ "L-bad-allow"; "D-random" ] (rules_of fs);
  let fs = lint {|let f () = (Random.int 6 [@lint.allow "D-random" ""])|} in
  Alcotest.(check (list string)) "empty reason rejected"
    [ "L-bad-allow"; "D-random" ] (rules_of fs)

let test_parse_error () =
  check_rules "unparseable file reported" [ "L-parse-error" ] "let f = ("

(* ---- Det_tbl ---- *)

let test_det_tbl_equal_tables () =
  (* Two tables with identical final bindings but very different histories:
     insertion order, deletions, re-insertions and capacity all differ, so
     plain Hashtbl iteration may disagree — Det_tbl must not. *)
  let a = Hashtbl.create 4 in
  List.iter (fun k -> Hashtbl.replace a k (k * 10)) (List.init 100 Fun.id);
  let b = Hashtbl.create 512 in
  List.iter (fun k -> Hashtbl.replace b k (k * 10)) (List.rev (List.init 150 Fun.id));
  for k = 100 to 149 do
    Hashtbl.remove b k
  done;
  Alcotest.(check (list (pair int int)))
    "bindings agree"
    (Analysis.Det_tbl.bindings ~cmp:Int.compare a)
    (Analysis.Det_tbl.bindings ~cmp:Int.compare b);
  Alcotest.(check (list (pair int int)))
    "bindings are key-sorted"
    (List.init 100 (fun k -> (k, k * 10)))
    (Analysis.Det_tbl.bindings ~cmp:Int.compare a);
  let render tbl =
    let buf = Buffer.create 256 in
    Analysis.Det_tbl.iter ~cmp:Int.compare
      (fun k v -> Buffer.add_string buf (Printf.sprintf "%d=%d;" k v))
      tbl;
    Buffer.contents buf
  in
  Alcotest.(check string) "rendered output identical" (render a) (render b);
  check_int "fold agrees too"
    (Analysis.Det_tbl.fold ~cmp:Int.compare (fun k v acc -> acc + (k * v)) a 0)
    (Analysis.Det_tbl.fold ~cmp:Int.compare (fun k v acc -> acc + (k * v)) b 0)

let test_det_tbl_shadowed_bindings () =
  (* Hashtbl.add shadowing: only the visible binding is enumerated, once. *)
  let t = Hashtbl.create 4 in
  Hashtbl.add t 1 "old";
  Hashtbl.add t 1 "new";
  Hashtbl.add t 2 "two";
  Alcotest.(check (list (pair int string)))
    "latest binding only"
    [ (1, "new"); (2, "two") ]
    (Analysis.Det_tbl.bindings ~cmp:Int.compare t);
  check_int "keys deduplicated" 2 (List.length (Analysis.Det_tbl.sorted_keys ~cmp:Int.compare t))

let test_det_tbl_custom_compare () =
  let t = Hashtbl.create 4 in
  List.iter (fun k -> Hashtbl.replace t k ()) [ "b"; "a"; "c" ];
  Alcotest.(check (list string))
    "descending comparator"
    [ "c"; "b"; "a" ]
    (Analysis.Det_tbl.sorted_keys ~cmp:(fun x y -> compare y x) t)

(* ---- the typed tier (T-rules) ---- *)

let typed_dir = "lint_fixtures/typed"

let typed_lint file =
  let path = Filename.concat typed_dir file in
  let cmts = Typed_lint.find_cmts [ typed_dir ] in
  match Typed_lint.pair_sources ~sources:[ path ] ~cmts with
  | [ { Typed_lint.path; cmt } ] -> Typed_lint.lint_cmt ~file:path cmt
  | _ -> Alcotest.failf "no cmt paired for %s (stale build?)" file

let expected_typed_rule = function
  | "bad_hashtbl_alias.ml" | "bad_hashtbl_functor.ml" | "bad_hashtbl_eta.ml" ->
    Some "T-hashtbl-iter"
  | "bad_float_eq_inferred.ml" -> Some "T-float-eq"
  | "bad_poly_compare.ml" -> Some "T-poly-compare-mutable"
  | "bad_domain_escape.ml" -> Some "T-domain-escape"
  | "allow_clean_typed.ml" | "stale_allow.ml" -> None
  | other -> Alcotest.failf "unexpected typed fixture %s" other

let test_typed_fixture_exactness () =
  let files =
    Sys.readdir typed_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.sort String.compare
  in
  check_int "typed corpus present" 8 (List.length files);
  List.iter
    (fun f ->
      let found = rules_of (fst (typed_lint f)) in
      match expected_typed_rule f with
      | None -> Alcotest.(check (list string)) (f ^ " is clean") [] found
      | Some rule ->
        check_bool (f ^ " fires") true (found <> []);
        List.iter
          (fun r -> Alcotest.(check string) (f ^ " fires only " ^ rule) rule r)
          found)
    files

let test_typed_blind_spot_ablation () =
  (* The point of the tier: every typed fixture is invisible to the
     syntactic pass. Outside a library context the syntactic tier must find
     literally nothing in any of them. *)
  Sys.readdir typed_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.iter (fun f ->
         let path = Filename.concat typed_dir f in
         Alcotest.(check (list string))
           (f ^ " is syntactically invisible")
           []
           (rules_of (Lint.check_file ~lib:false path)))

let test_unused_allow_sweep () =
  (* allow_clean_typed.ml: the allow suppressed a real T-finding, so the
     sweep over both tiers' allows has nothing to report. *)
  let path = Filename.concat typed_dir "allow_clean_typed.ml" in
  let t_findings, t_allows = typed_lint "allow_clean_typed.ml" in
  let _, s_allows = Lint.lint_file ~lib:false path in
  Alcotest.(check (list string)) "allowed violation is silent" [] (rules_of t_findings);
  check_int "used allow not reported" 0
    (List.length (Lint.unused_allows (s_allows @ t_allows)));
  (* stale_allow.ml: nothing ever fires, so the same sweep must flag the
     attribute itself. *)
  let path = Filename.concat typed_dir "stale_allow.ml" in
  let t_findings, t_allows = typed_lint "stale_allow.ml" in
  let _, s_allows = Lint.lint_file ~lib:false path in
  Alcotest.(check (list string)) "nothing fires in stale_allow" [] (rules_of t_findings);
  let unused = Lint.unused_allows (s_allows @ t_allows) in
  Alcotest.(check (list string)) "stale allow flagged" [ "L-unused-allow" ]
    (rules_of unused);
  check_int "at the attribute's line" 5 (List.hd unused).Lint.line

(* ---- Det_tbl.Keyed: deterministic streams from Hashtbl.Make tables ---- *)

module Quid = struct
  type t = { origin : int; incarnation : int; seq : int }

  let equal a b = a.origin = b.origin && a.incarnation = b.incarnation && a.seq = b.seq
  let hash = Hashtbl.hash

  let compare a b =
    match Int.compare a.origin b.origin with
    | 0 -> (
      match Int.compare a.incarnation b.incarnation with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
    | c -> c
end

module Quid_tbl = Hashtbl.Make (Quid)
module Det_quid_tbl = Analysis.Det_tbl.Keyed (Quid_tbl)

(* The retransmit paths in Atomic_broadcast/E2e_broadcast re-propose every
   unstable entry via Det_tbl.Keyed: the property their determinism rests
   on is that the proposal stream is a function of the table's contents
   alone. Two tables built with different insertion orders, capacities and
   insert-then-remove churn must yield byte-identical streams. *)
let test_keyed_stream_det =
  let quid (o, i, s) = { Quid.origin = o; incarnation = i; seq = s } in
  let entry (u : Quid.t) = Printf.sprintf "%d.%d.%d" u.origin u.incarnation u.seq in
  let stream tbl =
    let buf = Buffer.create 128 in
    Det_quid_tbl.iter ~cmp:Quid.compare
      (fun _ e ->
        Buffer.add_string buf e;
        Buffer.add_char buf ';')
      tbl;
    Buffer.contents buf
  in
  let uid_gen =
    QCheck2.Gen.(
      map quid (triple (int_range 0 4) (int_range 0 3) (int_range 0 30)))
  in
  QCheck2.Test.make
    ~name:"equal-content uid tables yield identical proposal streams" ~count:300
    QCheck2.Gen.(triple (list uid_gen) (list uid_gen) int)
    (fun (keep, churn, salt) ->
      (* [churn] keys that collide with kept ones must stay kept. *)
      let churn = List.filter (fun u -> not (List.exists (Quid.equal u) keep)) churn in
      let a = Quid_tbl.create 1 in
      List.iter (fun u -> Quid_tbl.replace a u (entry u)) keep;
      let b = Quid_tbl.create 512 in
      List.iter (fun u -> Quid_tbl.replace b u (entry u)) churn;
      (* Deterministic shuffle: order by a salted hash. *)
      let shuffled =
        List.sort
          (fun x y -> compare (Hashtbl.hash (salt, x)) (Hashtbl.hash (salt, y)))
          keep
      in
      List.iter (fun u -> Quid_tbl.replace b u (entry u)) shuffled;
      List.iter (fun u -> Quid_tbl.remove b u) churn;
      String.equal (stream a) (stream b))

let test_keyed_sorted_keys () =
  let t = Quid_tbl.create 4 in
  List.iter
    (fun (o, i, s) -> Quid_tbl.replace t { Quid.origin = o; incarnation = i; seq = s } ())
    [ (1, 0, 2); (0, 1, 0); (1, 0, 1); (0, 0, 9) ];
  Alcotest.(check (list (triple int int int)))
    "ascending (origin, incarnation, seq)"
    [ (0, 0, 9); (0, 1, 0); (1, 0, 1); (1, 0, 2) ]
    (List.map
       (fun (u : Quid.t) -> (u.origin, u.incarnation, u.seq))
       (Det_quid_tbl.sorted_keys ~cmp:Quid.compare t))

(* ---- Int_tbl: the simulator's int-keyed table against the polymorphic one ---- *)

type int_tbl_op = Replace of int * int | Remove of int | Find of int | Mem of int | Reset

(* Ids from the clusters the simulator keys by: the dense block from 0, a
   shard's ids [i + k * shards] at strides 2, 8 and 32, negative sharded
   sub-transaction ids (dense and those of shard 3 of 8), [1_000_000 + g]
   convergence probes and [1_000_000_000 + k] kill probes. *)
let int_tbl_key =
  QCheck2.Gen.(
    oneof
      [
        int_range 0 300;
        map (fun k -> 1 + (2 * k)) (int_range 0 300);
        map (fun k -> 3 + (8 * k)) (int_range 0 300);
        map (fun k -> 5 + (32 * k)) (int_range 0 300);
        map (fun g -> -((2 * g) + 1)) (int_range 0 100);
        map (fun g -> -((2 * g) + 2)) (int_range 0 100);
        map (fun k -> -((2 * (3 + (8 * k))) + 1)) (int_range 0 100);
        map (fun k -> -((2 * (3 + (8 * k))) + 2)) (int_range 0 100);
        map (fun g -> 1_000_000 + g) (int_range 0 20);
        map (fun k -> 1_000_000_000 + k) (int_range 0 20);
      ])

let int_tbl_op =
  QCheck2.Gen.(
    frequency
      [
        (8, map2 (fun k v -> Replace (k, v)) int_tbl_key small_int);
        (4, map (fun k -> Remove k) int_tbl_key);
        (3, map (fun k -> Find k) int_tbl_key);
        (3, map (fun k -> Mem k) int_tbl_key);
        (1, pure Reset);
      ])

(* After every step the table answers every lookup, its length and its
   sorted enumerations exactly as a polymorphic [Hashtbl] read through
   [Det_tbl] does. *)
let test_int_tbl_model =
  QCheck2.Test.make ~name:"Int_tbl agrees with a polymorphic Hashtbl" ~count:300
    QCheck2.Gen.(pair (int_range 1 64) (list_size (int_range 0 400) int_tbl_op))
    (fun (size, ops) ->
      let t = Analysis.Int_tbl.create size and m = Hashtbl.create size in
      let keys =
        List.sort_uniq Int.compare
          (List.filter_map
             (function Replace (k, _) | Remove k | Find k | Mem k -> Some k | Reset -> None)
             ops)
      in
      let agree () =
        let bindings = Analysis.Det_tbl.bindings ~cmp:Int.compare m in
        Analysis.Int_tbl.length t = Hashtbl.length m
        && List.for_all
             (fun k ->
               Analysis.Int_tbl.find_opt t k = Hashtbl.find_opt m k
               && Analysis.Int_tbl.mem t k = Hashtbl.mem m k)
             keys
        && List.rev (Analysis.Int_tbl.fold_sorted (fun k v acc -> (k, v) :: acc) t []) = bindings
        &&
        let visited = ref [] in
        Analysis.Int_tbl.iter_sorted (fun k v -> visited := (k, v) :: !visited) t;
        List.rev !visited = bindings
      in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
            Analysis.Int_tbl.replace t k v;
            Hashtbl.replace m k v
          | Remove k ->
            Analysis.Int_tbl.remove t k;
            Hashtbl.remove m k
          | Find _ | Mem _ -> ()
          | Reset ->
            Analysis.Int_tbl.reset t;
            Hashtbl.reset m);
          agree ())
        ops)

(* Mean probes per hit over every binding: a bucket of [n] bindings costs
   [1 + 2 + ... + n] probes to find each of them once. *)
let probes_per_hit t =
  let st = Analysis.Int_tbl.stats t in
  let probes = ref 0 in
  Array.iteri
    (fun n buckets -> probes := !probes + (buckets * n * (n + 1) / 2))
    st.Hashtbl.bucket_histogram;
  float_of_int !probes /. float_of_int st.Hashtbl.num_bindings

(* The hash spreads a shard's strided ids about as evenly as dense ones:
   8 000 keys per stride cost at most 3 probes per hit (dense ids cost
   1.5). The key itself as the hash would cost 8.3 at stride 8 and 16.1
   at stride 16, a chain walk per lookup in every table keyed by a shard's
   transactions. *)
let test_int_tbl_spread () =
  List.iter
    (fun (name, key) ->
      let t = Analysis.Int_tbl.create 16 in
      for k = 0 to 7_999 do
        Analysis.Int_tbl.replace t (key k) ()
      done;
      let p = probes_per_hit t in
      check_bool (Printf.sprintf "%s: %.2f probes per hit" name p) true (p <= 3.0))
    [
      ("dense", Fun.id);
      ("stride 2", fun k -> 1 + (2 * k));
      ("stride 4", fun k -> 3 + (4 * k));
      ("stride 8", fun k -> 3 + (8 * k));
      ("stride 16", fun k -> 5 + (16 * k));
      ("probe ids, 8 shards", fun k -> -((2 * (3 + (8 * k))) + 1));
      ("write ids, 8 shards", fun k -> -((2 * (3 + (8 * k))) + 2));
    ]

(* Removing bindings from inside [iter_sorted] skips them, as [Det_tbl]
   does; replicated logs and 2PC recovery rely on this when a visit
   completes a later slot or transaction. *)
let test_int_tbl_iter_removes () =
  let t = Analysis.Int_tbl.create 4 in
  List.iter (fun k -> Analysis.Int_tbl.replace t k (k * 10)) [ 5; 1; 3; 4; 2 ];
  let seen = ref [] in
  Analysis.Int_tbl.iter_sorted
    (fun k v ->
      seen := (k, v) :: !seen;
      if k = 2 then Analysis.Int_tbl.remove t 4;
      if k = 3 then Analysis.Int_tbl.replace t 9 90)
    t;
  Alcotest.(check (list (pair int int)))
    "ascending, removed key skipped, added key unvisited"
    [ (1, 10); (2, 20); (3, 30); (5, 50) ]
    (List.rev !seen)

(* ---- fixture corpus exactness (beyond the golden diff) ---- *)

let expected_fixture_rule file =
  match Filename.remove_extension (Filename.basename file) with
  | "bad_random" -> Some "D-random"
  | "bad_wallclock" -> Some "D-wallclock"
  | "bad_hashtbl_iter" -> Some "D-hashtbl-iter"
  | "bad_float_eq" -> Some "D-float-eq"
  | "bad_toplevel_mutable" -> Some "P-toplevel-mutable"
  | "bad_ignored_result" -> Some "H-ignored-result"
  | "bad_catchall" -> Some "H-catchall-exn"
  | "bad_missing_mli" -> Some "H-missing-mli"
  | "bad_unknown_allow" -> Some "L-unknown-rule"
  | "allow_clean" -> None
  | other -> Alcotest.failf "unexpected fixture %s" other

let test_fixture_exactness () =
  let files =
    Sys.readdir "lint_fixtures" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.sort String.compare
  in
  check_bool "corpus present" true (List.length files >= 10);
  List.iter
    (fun f ->
      let path = Filename.concat "lint_fixtures" f in
      let found = rules_of (Lint.check_file ~lib:true path) in
      match expected_fixture_rule f with
      | None -> Alcotest.(check (list string)) (f ^ " is clean") [] found
      | Some rule ->
        check_bool (f ^ " fires") true (found <> []);
        List.iter
          (fun r -> Alcotest.(check string) (f ^ " fires only " ^ rule) rule r)
          found)
    files

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "D-random" `Quick test_d_random;
          Alcotest.test_case "D-wallclock" `Quick test_d_wallclock;
          Alcotest.test_case "D-hashtbl-iter" `Quick test_d_hashtbl;
          Alcotest.test_case "D-float-eq" `Quick test_d_float_eq;
          Alcotest.test_case "P-toplevel-mutable" `Quick test_p_toplevel_mutable;
          Alcotest.test_case "H-ignored-result" `Quick test_h_ignored_result;
          Alcotest.test_case "H-catchall-exn" `Quick test_h_catchall;
          Alcotest.test_case "H-missing-mli" `Quick test_h_missing_mli;
          Alcotest.test_case "parse error" `Quick test_parse_error;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "allow suppresses" `Quick test_allow_suppresses;
          Alcotest.test_case "allow is scoped" `Quick test_allow_is_scoped;
          Alcotest.test_case "mismatched id does not suppress" `Quick
            test_allow_wrong_rule_does_not_suppress;
          Alcotest.test_case "unknown rule id errors" `Quick test_unknown_rule_id;
          Alcotest.test_case "missing reason errors" `Quick test_missing_reason;
        ] );
      ( "det_tbl",
        [
          Alcotest.test_case "equal tables, equal output" `Quick test_det_tbl_equal_tables;
          Alcotest.test_case "shadowed bindings" `Quick test_det_tbl_shadowed_bindings;
          Alcotest.test_case "custom comparator" `Quick test_det_tbl_custom_compare;
        ] );
      ( "det_tbl_keyed",
        [
          QCheck_alcotest.to_alcotest test_keyed_stream_det;
          Alcotest.test_case "sorted_keys in uid order" `Quick test_keyed_sorted_keys;
        ] );
      ( "int_tbl",
        [
          QCheck_alcotest.to_alcotest test_int_tbl_model;
          Alcotest.test_case "iter_sorted under removal" `Quick test_int_tbl_iter_removes;
          Alcotest.test_case "strided ids spread evenly" `Quick test_int_tbl_spread;
        ] );
      ( "typed tier",
        [
          Alcotest.test_case "each fixture fires exactly its T-rule" `Quick
            test_typed_fixture_exactness;
          Alcotest.test_case "syntactic pass misses the whole corpus" `Quick
            test_typed_blind_spot_ablation;
          Alcotest.test_case "unused-allow sweep" `Quick test_unused_allow_sweep;
        ] );
      ( "fixtures",
        [ Alcotest.test_case "each triggers exactly its rule" `Quick test_fixture_exactness ] );
    ]
