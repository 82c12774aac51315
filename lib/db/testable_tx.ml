type outcome = Committed | Aborted

let outcome_equal a b =
  match (a, b) with
  | Committed, Committed | Aborted, Aborted -> true
  | Committed, Aborted | Aborted, Committed -> false

let pp_outcome ppf = function
  | Committed -> Format.pp_print_string ppf "committed"
  | Aborted -> Format.pp_print_string ppf "aborted"

type t = (Transaction.id, outcome) Hashtbl.t

let create () = Hashtbl.create 1024

let record t id outcome =
  match Hashtbl.find_opt t id with
  | None -> Hashtbl.replace t id outcome
  | Some prior ->
    if not (outcome_equal prior outcome) then
      invalid_arg (Printf.sprintf "Testable_tx.record: conflicting outcome for T%d" id)

let find t id = Hashtbl.find_opt t id
let already_processed t id = Hashtbl.mem t id
let count t = Hashtbl.length t
let reset t = Hashtbl.reset t
let to_list t =
  Analysis.Det_tbl.fold ~cmp:Int.compare (fun id outcome acc -> (id, outcome) :: acc) t []

let replace t entries =
  Hashtbl.reset t;
  List.iter (fun (id, outcome) -> Hashtbl.replace t id outcome) entries

let committed_count t =
  (Hashtbl.fold (fun _ outcome n -> match outcome with Committed -> n + 1 | Aborted -> n) t 0
  [@lint.allow "D-hashtbl-iter" "counting commits is iteration-order independent"])
