(** A protocol as one whole-network state machine: the only shape a
    protocol hands the slot engines. {!Runner.drive} runs it on any
    backend. The paper's protocols are machines — COGCAST
    ([Crn_core.Cogcast.machine]) and each of COGCOMP's phases (phase 1 is
    that COGCAST; the phase-2 roster exchange, the phase-3 rewind and the
    phase-4 drain are machines of their own) — and so
    is every rendezvous baseline and sustained-traffic workload.

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
