type id = int

type t = { id : id; client : int; ops : Op.t list }

let make ~id ~client ops =
  if ops = [] then invalid_arg "Transaction.make: no operations";
  { id; client; ops }

let read_set t =
  List.filter_map (function Op.Read i -> Some i | Op.Write _ -> None) t.ops
  |> List.sort_uniq Int.compare

let write_set t =
  List.filter_map (function Op.Write (i, _) -> Some i | Op.Read _ -> None) t.ops
  |> List.sort_uniq Int.compare

(* The value of the last write to [item] in [ops], or [v] if none. *)
let rec last_value item v = function
  | [] -> v
  | Op.Write (i, v') :: ops when Int.equal i item -> last_value item v' ops
  | (Op.Write _ | Op.Read _) :: ops -> last_value item v ops

let writes t =
  (* Last write per item wins; preserve first-write program order. Op
     lists are short, so linear scans beat scratch tables here. *)
  let rec collect acc = function
    | [] -> List.rev acc
    | Op.Write (i, v) :: ops ->
      if List.exists (fun (j, _) -> Int.equal i j) acc then collect acc ops
      else collect ((i, last_value i v ops) :: acc) ops
    | Op.Read _ :: ops -> collect acc ops
  in
  collect [] t.ops

let is_update t = List.exists Op.is_write t.ops
let op_count t = List.length t.ops

type writeset = {
  tx_id : id;
  ws_client : int;
  read_items : int list;
  write_values : (int * int) list;
}

let to_writeset t =
  { tx_id = t.id; ws_client = t.client; read_items = read_set t; write_values = writes t }

let ws_write_items ws = List.map fst ws.write_values

let pp ppf t =
  Format.fprintf ppf "T%d[%a]" t.id
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ') Op.pp)
    t.ops

let pp_writeset ppf ws =
  Format.fprintf ppf "WS(T%d r:%d w:%d)" ws.tx_id (List.length ws.read_items)
    (List.length ws.write_values)

let equal_writeset a b = a.tx_id = b.tx_id
