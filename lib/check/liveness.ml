open Groupsafe

type undecided = {
  u_tx : Db.Transaction.id;
  u_delegate : int;
  u_submitted_at : Sim.Sim_time.t;
}

type late = {
  l_tx : Db.Transaction.id;
  l_delegate : int;
  l_decision_us : int;
}

type verdict = {
  checked_at : Sim.Sim_time.t;
  owed : int;
  decided : int;
  exempt : int;
  undecided : undecided list;
  max_decision_us : int;
  bound : int option;
  late : late list;
  leaders : int list;
  leader_expected : bool;
  leader_ok : bool;
  live : bool;
}

(* The oracle only reads the books [System] already keeps (submissions,
   acknowledgements, crash histories, ordering-layer leadership): it
   submits nothing and advances no time, so certifying liveness can never
   perturb the execution it certifies. Run it after quiescence — on a fair
   schedule every fault has been repaired by then, so anything still
   undecided is wedged forever, not merely late. *)
let certify ?max_decision_us:bound sys =
  let submissions = System.submissions sys in
  let delegate_crashed_after delegate at =
    List.exists
      (fun c -> Sim.Sim_time.(c >= at))
      (System.history sys delegate).Gcs.Process_class.crashes
  in
  (* A decision is owed only where the client kept a live delegate: a
     submission to a dead or recovering server was dropped on the floor,
     and a delegate that crashes after accepting work takes its response
     callback down with it (the client would time out and retry — retries
     are the client model's concern, not this oracle's). *)
  let exempted sub =
    (not sub.System.sub_delegate_serving)
    || delegate_crashed_after sub.System.sub_delegate sub.System.sub_at
  in
  let decided, undecided, exempt =
    List.fold_left
      (fun (decided, undecided, exempt) sub ->
        if System.acked_id sys sub.System.sub_tx then (decided + 1, undecided, exempt)
        else if exempted sub then (decided, undecided, exempt + 1)
        else
          ( decided,
            {
              u_tx = sub.System.sub_tx;
              u_delegate = sub.System.sub_delegate;
              u_submitted_at = sub.System.sub_at;
            }
            :: undecided,
            exempt ))
      (0, [], 0) submissions
  in
  let undecided = List.rev undecided in
  (* Decided-but-late is a different report from undecided: the protocol
     answered, just not within the model-derived bound. Collected only when
     a bound was given. *)
  let max_decision_us, late_rev =
    List.fold_left
      (fun (worst, late) ack ->
        match System.submission_of sys ack.System.tx with
        | None -> (worst, late)
        | Some sub ->
          let us = Sim.Sim_time.span_to_us (Sim.Sim_time.diff ack.System.at sub.System.sub_at) in
          let late =
            match bound with
            | Some b when us > b ->
              { l_tx = ack.System.tx; l_delegate = sub.System.sub_delegate; l_decision_us = us }
              :: late
            | _ -> late
          in
          (Int.max worst us, late))
      (0, []) (System.acked sys)
  in
  let late = List.rev late_rev in
  let n = System.n_servers sys in
  let serving = List.length (List.filter (System.serving sys) (List.init n Fun.id)) in
  (* Leadership is owed whenever the technique runs an ordering protocol
     and a quorum is back up: a healed majority that cannot re-elect a
     working leader has wedged every future submission, even if the past
     load happened to drain. *)
  let leader_expected = System.has_ordering_layer sys && serving >= Gcs.View.quorum n in
  let leaders = System.leaders sys in
  let leader_ok = (not leader_expected) || leaders <> [] in
  {
    checked_at = System.now sys;
    owed = List.length submissions;
    decided;
    exempt;
    undecided;
    max_decision_us;
    bound;
    late;
    leaders;
    leader_expected;
    leader_ok;
    live = undecided = [] && late = [] && leader_ok;
  }

let pp ppf v =
  Format.fprintf ppf
    "@[<v>live: %b@ decisions: %d of %d submissions (%d exempt: delegate dead), slowest %.1f \
     ms@ leadership: %s@]"
    v.live v.decided v.owed v.exempt
    (float_of_int v.max_decision_us /. 1000.)
    (match (v.leader_expected, v.leaders) with
    | false, _ -> "not applicable (no ordering layer or no quorum serving)"
    | true, [] -> "MISSING (no serving replica leads the ordering protocol)"
    | true, ls -> String.concat " " (List.map (fun i -> "S" ^ string_of_int i) ls));
  (match v.bound with
  | None -> ()
  | Some b ->
    Format.fprintf ppf "@ decision bound: %.1f ms, %d decided late" (float_of_int b /. 1000.)
      (List.length v.late));
  if v.undecided <> [] then begin
    Format.fprintf ppf "@ wedged transactions:";
    List.iter
      (fun u ->
        Format.fprintf ppf "@   tx %d (delegate S%d, submitted at %a)" u.u_tx u.u_delegate
          Sim.Sim_time.pp u.u_submitted_at)
      v.undecided
  end;
  if v.late <> [] then begin
    Format.fprintf ppf "@ decided but late (bound exceeded, not wedged):";
    List.iter
      (fun l ->
        Format.fprintf ppf "@   tx %d (delegate S%d, decided in %.1f ms)" l.l_tx l.l_delegate
          (float_of_int l.l_decision_us /. 1000.))
      v.late
  end
