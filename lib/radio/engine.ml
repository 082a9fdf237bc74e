type 'msg node = 'msg Action.node = {
  id : int;
  decide : slot:int -> 'msg Action.decision;
  feedback : slot:int -> 'msg Action.feedback -> unit;
}

type outcome = Soa.outcome = {
  slots_run : int;
  stopped_early : bool;
  counters : Trace.Counters.t;
}

let node ~id ~decide ~feedback = { id; decide; feedback }

(* The engine is the struct-of-arrays loop at one shard: validate the node
   array, bridge it through the machine adapter, run. *)
let run ?jammer ?faults ?metrics ?trace ?stop ?on_slot_end ~availability ~rng
    ~nodes ~max_slots () =
  let n = Array.length nodes in
  if n = 0 then invalid_arg "Engine.run: no nodes";
  if Crn_channel.Dynamic.num_nodes availability <> n then
    invalid_arg "Engine.run: node count disagrees with availability";
  Array.iteri
    (fun i node -> if node.id <> i then invalid_arg "Engine.run: node id mismatch")
    nodes;
  if max_slots < 0 then invalid_arg "Engine.run: negative max_slots";
  (match metrics with
  | Some m when Array.length m.Metrics.transmissions <> n ->
      invalid_arg "Engine.run: metrics sized for a different node count"
  | _ -> ());
  Soa.run ?jammer ?faults ?metrics ?trace ?stop ?on_slot_end ~availability ~rng
    ~protocol:(Soa_adapter.protocol nodes) ~max_slots ()
