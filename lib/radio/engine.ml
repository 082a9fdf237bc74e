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

(* A node array is the machine path at one shard: validate the array,
   bridge it through the machine adapter, run. *)
let run ?jammer ?faults ?metrics ?trace ?stop ?on_slot_end ~availability ~rng
    ~nodes ~max_slots () =
  Soa_adapter.check_nodes ~who:"Engine.run" ~availability nodes;
  if max_slots < 0 then invalid_arg "Engine.run: negative max_slots";
  (match metrics with
  | Some m when Array.length m.Metrics.transmissions <> Array.length nodes ->
      invalid_arg "Engine.run: metrics sized for a different node count"
  | _ -> ());
  Soa.run ?jammer ?faults ?metrics ?trace ?stop ?on_slot_end ~availability ~rng
    ~protocol:(Soa_adapter.protocol nodes) ~max_slots ()
