type missing = { server : int; tx : Db.Transaction.id }

type verdict = {
  checked_at : Sim.Sim_time.t;
  acked_updates : int;
  serving_servers : int list;
  missing : missing list;
  divergent_items : int;
  probe_committed : bool;
  probe_ms : float option;
  converged : bool;
}

let probe_bound = Sim.Sim_time.span_s 2.
let default_probe_tx_id = 1_000_000

let certify ?(probe_tx_id = default_probe_tx_id) sys =
  let n = System.n_servers sys in
  let serving_servers = List.filter (System.serving sys) (List.init n Fun.id) in
  let acked_updates =
    List.filter_map
      (fun { System.tx; outcome; update; _ } ->
        match outcome with
        | Db.Testable_tx.Committed when update -> Some tx
        | Db.Testable_tx.Committed | Db.Testable_tx.Aborted -> None)
      (System.acked sys)
  in
  (* The probe runs *first*, deliberately: a server that sat out a
     partition only learns what it missed when a fresh decision reaches it
     (a chosen-slot gap triggers its catch-up request), so the probe is
     both the liveness check and the nudge that completes state transfer.
     Holes and divergence are measured after the probe bound elapses. *)
  let probe_outcome = ref None in
  let probe_started = System.now sys in
  (match serving_servers with
  | [] -> ()
  | delegate :: _ ->
    let item = Int.max 0 (System.params sys).Workload.Params.items - 1 in
    let tx = Db.Transaction.make ~id:probe_tx_id ~client:0 [ Db.Op.Write (item, 1) ] in
    System.submit sys ~delegate
      ~on_response:(fun o -> probe_outcome := Some (o, System.now sys))
      tx;
    System.run_for sys probe_bound);
  let probe_committed =
    match !probe_outcome with Some (Db.Testable_tx.Committed, _) -> true | _ -> false
  in
  let probe_ms =
    match !probe_outcome with
    | Some (_, at) -> Some (Sim.Sim_time.span_to_ms (Sim.Sim_time.diff at probe_started))
    | None -> None
  in
  (* Convergence is stronger than loss-freedom: every acknowledged update
     must be present on *every* serving server, not merely somewhere. *)
  let missing =
    List.concat_map
      (fun server ->
        List.filter_map
          (fun tx ->
            if System.committed_on sys ~server tx then None else Some { server; tx })
          acked_updates)
      serving_servers
  in
  let divergent_items = Safety_checker.divergent_items sys in
  {
    checked_at = System.now sys;
    acked_updates = List.length acked_updates;
    serving_servers;
    missing;
    divergent_items;
    probe_committed;
    probe_ms;
    converged = missing = [] && divergent_items = 0 && probe_committed;
  }

let pp ppf v =
  Format.fprintf ppf
    "@[<v>converged: %b@ acked updates: %d on %d serving servers@ missing replications: %d@ \
     divergent items: %d@ probe: %s@]"
    v.converged v.acked_updates
    (List.length v.serving_servers)
    (List.length v.missing) v.divergent_items
    (match (v.probe_committed, v.probe_ms) with
    | true, Some ms -> Printf.sprintf "committed in %.1f ms" ms
    | true, None -> "committed"
    | false, Some ms -> Printf.sprintf "failed after %.1f ms" ms
    | false, None -> "no response within bound")
