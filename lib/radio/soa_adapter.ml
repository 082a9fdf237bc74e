(* The SoA engine stores messages as ints, but machines are polymorphic
   in their message type. The adapter never asks the engine to carry the
   payload: it keeps the slot's decisions in an array, stores the
   broadcaster's node id as the SoA payload slot, and reconstructs the
   typed message from the winner's own decision when classifying
   feedback. Decisions are written in the decide phase and
   read in the feedback phase, which the engine separates with a
   {!Crn_exec.Pool.parallel_for} barrier, so cross-shard reads of a
   winner's decision are race-free. *)

let machine (type msg) ?(parallel = false) ~n (m : (msg, _) Machine.t) :
    Soa.protocol =
  let decisions : msg Action.decision array =
    Array.make n (Action.listen ~label:0)
  in
  let decide t ~slot ~lo ~hi =
    let decide = m.Machine.decide in
    for v = lo to hi - 1 do
      if not (Soa.is_down t v) then begin
        let d = decide ~node:v ~slot in
        decisions.(v) <- d;
        match d.Action.intent with
        | Action.Broadcast _ -> Soa.set_broadcast t v ~label:d.Action.label ~msg:v
        | Action.Listen -> Soa.set_listen t v ~label:d.Action.label
      end
    done
  in
  let winner_msg w =
    match decisions.(w).Action.intent with
    | Action.Broadcast m -> m
    | Action.Listen ->
        (* The engine only declares broadcasters winners. *)
        assert false
  in
  let feedback t ~slot ~lo ~hi =
    let feedback = m.Machine.feedback in
    for v = lo to hi - 1 do
      if not (Soa.is_down t v) then
        if Soa.was_jammed t v then feedback ~node:v ~slot Action.Jammed
        else if Soa.won t v then feedback ~node:v ~slot Action.Won
        else if Soa.lost t v then begin
          let w = Soa.sender t v in
          feedback ~node:v ~slot (Action.Lost { winner = w; msg = winner_msg w })
        end
        else if Soa.no_winner t v then feedback ~node:v ~slot Action.No_winner
        else if Soa.heard t v then begin
          let w = Soa.sender t v in
          feedback ~node:v ~slot (Action.Heard { sender = w; msg = winner_msg w })
        end
        else if Soa.silent t v then feedback ~node:v ~slot Action.Silence
    done
  in
  { Soa.parallel; decide; feedback }

let of_nodes (nodes : 'msg Action.node array) =
  {
    Machine.decide = (fun ~node ~slot -> nodes.(node).Action.decide ~slot);
    feedback = (fun ~node ~slot fb -> nodes.(node).Action.feedback ~slot fb);
    finished = (fun () -> false);
    snapshot = (fun ~slots_run:_ -> ());
  }

let protocol ?parallel nodes =
  machine ?parallel ~n:(Array.length nodes) (of_nodes nodes)

let check_nodes ~who ~availability (nodes : 'msg Action.node array) =
  let n = Array.length nodes in
  if n = 0 then invalid_arg (who ^ ": no nodes");
  if Crn_channel.Dynamic.num_nodes availability <> n then
    invalid_arg (who ^ ": node count disagrees with availability");
  Array.iteri
    (fun i node -> if node.Action.id <> i then invalid_arg (who ^ ": node id mismatch"))
    nodes
