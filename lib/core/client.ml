type response = Replied of Db.Testable_tx.outcome | Gave_up

type pending = {
  tx : Db.Transaction.t;
  mutable attempts : int;
  mutable answered : bool;
  on_outcome : response -> unit;
}

type t = {
  sys : System.t;
  endpoint : Net.Endpoint.t;
  process : Sim.Process.t;
  retry_timeout : Sim.Sim_time.span;
  max_attempts : int;
  pending : pending Analysis.Int_tbl.t;
  mutable next_delegate : int;
  mutable completed : int;
  mutable retries : int;
  mutable gave_up : int;
}

(* Client node indexes live above the server range so they never collide. *)
let client_node_index sys index = System.n_servers sys + index

let handle_reply t tx_id outcome =
  match Analysis.Int_tbl.find_opt t.pending tx_id with
  | None -> ()
  | Some p ->
    if not p.answered then begin
      p.answered <- true;
      Analysis.Int_tbl.remove t.pending tx_id;
      t.completed <- t.completed + 1;
      p.on_outcome (Replied outcome)
    end

let create sys ~index ?(retry_timeout = Sim.Sim_time.span_ms 500.) ?(max_attempts = 10) () =
  let engine = System.engine sys in
  let label = Printf.sprintf "C%d" index in
  let id = Net.Node_id.make ~index:(client_node_index sys index) ~label in
  let process = Sim.Process.create engine ~name:label in
  let endpoint = Net.Endpoint.attach (System.network sys) ~id ~process () in
  let t =
    {
      sys;
      endpoint;
      process;
      retry_timeout;
      max_attempts;
      pending = Analysis.Int_tbl.create 16;
      next_delegate = index mod System.n_servers sys;
      completed = 0;
      retries = 0;
      gave_up = 0;
    }
  in
  Net.Endpoint.add_handler endpoint (fun message ->
      match message.Net.Message.payload with
      | Client_protocol.Client_reply { tx_id; outcome } ->
        handle_reply t tx_id outcome;
        true
      | _ -> false);
  t

let rec attempt t p ~delegate =
  p.attempts <- p.attempts + 1;
  Net.Endpoint.send t.endpoint
    ~dst:(System.server_id t.sys delegate)
    (Client_protocol.Client_request { tx = p.tx });
  Sim.Process.after t.process t.retry_timeout (fun () ->
      if (not p.answered) && Analysis.Int_tbl.mem t.pending p.tx.Db.Transaction.id then begin
        if p.attempts < t.max_attempts then begin
          t.retries <- t.retries + 1;
          (* Try the next server; the transaction keeps its id, so a
             server that already processed it answers from its testable
             transaction record instead of running it twice. *)
          attempt t p ~delegate:((delegate + 1) mod System.n_servers t.sys)
        end
        else begin
          (* Out of attempts: tell the caller explicitly instead of
             going silent — an application cannot distinguish "still
             retrying" from "abandoned" on its own. *)
          p.answered <- true;
          Analysis.Int_tbl.remove t.pending p.tx.Db.Transaction.id;
          t.gave_up <- t.gave_up + 1;
          p.on_outcome Gave_up
        end
      end)

let submit t ?delegate tx ~on_outcome =
  let delegate =
    match delegate with
    | Some d -> d
    | None ->
      let d = t.next_delegate in
      t.next_delegate <- (d + 1) mod System.n_servers t.sys;
      d
  in
  let p = { tx; attempts = 0; answered = false; on_outcome } in
  Analysis.Int_tbl.replace t.pending tx.Db.Transaction.id p;
  attempt t p ~delegate

let node_id t = Net.Endpoint.id t.endpoint
let completed t = t.completed
let retries t = t.retries
let gave_up t = t.gave_up
let in_flight t = Analysis.Int_tbl.length t.pending
