type ('msg, 'result) t = {
  decide : node:int -> slot:int -> 'msg Action.decision;
  feedback : node:int -> slot:int -> 'msg Action.feedback -> unit;
  finished : unit -> bool;
  snapshot : slots_run:int -> 'result;
}
