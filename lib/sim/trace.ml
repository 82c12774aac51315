type entry = {
  time : Sim_time.t;
  source : string;
  kind : string;
  attrs : (string * string) list;
}

type t = { engine : Engine.t; enabled : bool; mutable rev_entries : entry list }

let create ?(enabled = true) engine = { engine; enabled; rev_entries = [] }
let enabled tr = tr.enabled

let record tr ~source ~kind attrs =
  if tr.enabled then
    tr.rev_entries <- { time = Engine.now tr.engine; source; kind; attrs } :: tr.rev_entries

let record_tx tr ~source ~kind tx =
  if tr.enabled then record tr ~source ~kind [ ("tx", string_of_int tx) ]

let record_tx_outcome tr ~source ~kind tx ~outcome =
  if tr.enabled then record tr ~source ~kind [ ("tx", string_of_int tx); ("outcome", outcome) ]

let entries tr = List.rev tr.rev_entries
let find_all tr ~kind = List.filter (fun e -> String.equal e.kind kind) (entries tr)
let attr e key = List.assoc_opt key e.attrs
let length tr = List.length tr.rev_entries

let pp_entry ppf e =
  let pp_attr ppf (k, v) = Format.fprintf ppf " %s=%s" k v in
  Format.fprintf ppf "[%a] %-6s %s%a" Sim_time.pp e.time e.source e.kind
    (Format.pp_print_list ~pp_sep:(fun _ () -> ()) pp_attr)
    e.attrs

let dump ppf tr =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (entries tr)

let render_entry e = Format.asprintf "%a" pp_entry e

let render tr =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (render_entry e);
      Buffer.add_char b '\n')
    (entries tr);
  Buffer.contents b

let entry_equal a b =
  Sim_time.equal a.time b.time
  && String.equal a.source b.source
  && String.equal a.kind b.kind
  && List.length a.attrs = List.length b.attrs
  && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && String.equal v v') a.attrs b.attrs

let first_divergence ta tb =
  let rec walk i xs ys =
    match (xs, ys) with
    | [], [] -> None
    | x :: xs, y :: ys when entry_equal x y -> walk (i + 1) xs ys
    | x :: _, y :: _ -> Some (i, Some x, Some y)
    | x :: _, [] -> Some (i, Some x, None)
    | [], y :: _ -> Some (i, None, Some y)
  in
  walk 0 (entries ta) (entries tb)

let equal ta tb = first_divergence ta tb = None
