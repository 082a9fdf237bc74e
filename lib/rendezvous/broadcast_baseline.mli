(** The straw-man local broadcast from §1: every node runs randomized
    rendezvous against the source, which transmits its message in every
    slot. Informed non-source nodes keep hopping and listening — there is no
    epidemic relay, which is precisely what COGCAST adds and what this
    baseline is measured against in experiment E4.

    Expected completion is [O((c²/k)·lg n)]: each uninformed node meets the
    source with probability at least [k/c²] per slot.

    {!machine} runs on the same {!Crn_radio.Runner} backends as COGCAST
    ({!Crn_radio.Runner.drive}), so contention and label semantics are
    identical. *)

type msg = Payload

type result = {
  completed_at : int option;
  slots_run : int;
  informed_count : int;
  informed : bool array;
}

include module type of struct
  include Crn_radio.Machine
end

type machine = (msg, result) t

val machine :
  source:int ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  machine
(** Builds the state machine: splits one label stream per node off [rng]
    and starts with only [source] informed. *)
