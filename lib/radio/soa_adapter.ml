(* Generic bridge from the closure-per-node {!Action.node} shape to a
   {!Soa.protocol}, so every machine-based protocol — and {!Engine.run} and
   {!Emulation.run} themselves — runs on the struct-of-arrays engine
   without a hand-written duplicate.

   The SoA engine stores messages as ints, but protocols are polymorphic
   in their message type. The adapter never asks the engine to carry the
   payload: it keeps the slot's decisions in an array,
   stores the broadcaster's node id as the SoA payload slot, and
   reconstructs the typed message from the winner's own decision when
   classifying feedback. Decisions are written in the decide phase and
   read in the feedback phase, which the engine separates with a
   {!Crn_exec.Pool.parallel_for} barrier, so cross-shard reads of a
   winner's decision are race-free. *)

let protocol (type msg) ?(parallel = false) (nodes : msg Action.node array) :
    Soa.protocol =
  let n = Array.length nodes in
  let decisions : msg Action.decision array =
    Array.make n (Action.listen ~label:0)
  in
  let decide t ~slot ~lo ~hi =
    for v = lo to hi - 1 do
      if not (Soa.is_down t v) then begin
        let d = nodes.(v).Action.decide ~slot in
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
    for v = lo to hi - 1 do
      if not (Soa.is_down t v) then
        if Soa.was_jammed t v then nodes.(v).Action.feedback ~slot Action.Jammed
        else if Soa.won t v then nodes.(v).Action.feedback ~slot Action.Won
        else if Soa.lost t v then begin
          let w = Soa.sender t v in
          nodes.(v).Action.feedback ~slot
            (Action.Lost { winner = w; msg = winner_msg w })
        end
        else if Soa.no_winner t v then
          nodes.(v).Action.feedback ~slot Action.No_winner
        else if Soa.heard t v then begin
          let w = Soa.sender t v in
          nodes.(v).Action.feedback ~slot
            (Action.Heard { sender = w; msg = winner_msg w })
        end
        else if Soa.silent t v then
          nodes.(v).Action.feedback ~slot Action.Silence
    done
  in
  { Soa.parallel; decide; feedback }
