(** A single-run protocol as one whole-network state machine: the shape
    every rendezvous baseline and sustained-traffic workload exports, and
    what {!Runner.drive} runs on any backend.

    The engine polls [decide] and [feedback] per node and slot exactly as
    {!Engine} specifies. [finished] is the protocol's own completion
    predicate, checked before the first slot and after every slot.
    [snapshot ~slots_run] projects the typed result once the run stops.

    A module exporting a machine re-exports the fields with
    [include Crn_radio.Machine] (and
    [include module type of struct include Crn_radio.Machine end] in its
    interface), then names its instance, e.g.
    [type machine = (msg, result) t]. *)

type ('msg, 'result) t = {
  decide : node:int -> slot:int -> 'msg Action.decision;
  feedback : node:int -> slot:int -> 'msg Action.feedback -> unit;
  finished : unit -> bool;
  snapshot : slots_run:int -> 'result;
}
