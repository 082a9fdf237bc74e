(** The "hop-together" sequential scan from the §6 discussion — a
    global-channel-label algorithm that beats COGCAST when [c ≫ n].

    All nodes scan the global spectrum in lockstep: in slot [s] every node
    that has channel [s mod C] in its set tunes to it (source broadcasts,
    others listen); nodes lacking that channel park on a private label and
    idle. On the shared-core network the first slot whose scan channel is
    one of the [k] common channels completes the broadcast in one shot, so
    the expected time is [O(C/k)] — [O(1)] in the paper's [c = n², k = c−1]
    example, versus COGCAST's [Θ(n lg n)].

    The algorithm requires the *global label* model: each node must
    recognize the scan channel's global identity in its own set. It is
    impossible under local labels, which is the content of Theorem 15's
    separation. *)

type msg = Payload

type result = {
  completed_at : int option;
  slots_run : int;
  informed_count : int;
}

include module type of struct
  include Crn_radio.Machine
end

type machine = (msg, result) t

val machine : source:int -> assignment:Crn_channel.Assignment.t -> machine
(** The scan as a state machine over the static [assignment]. The scan is
    deterministic — no randomness is consumed by [decide]; an engine [rng]
    is only ever touched when informed relays contend. Informed non-source
    nodes also broadcast on the scan channel (relay), matching the
    discussion's "all nodes will hop to one of the k overlapping channels
    and hence complete the broadcast".

    The global-channel-to-label tables are built once from [assignment],
    so the machine must run on that assignment unchanged: under a
    reassigning availability its labels would tune to the wrong channels
    (and parking on label 0 could then hear the scan). *)
