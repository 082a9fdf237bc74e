(** Multi-rumor epidemic broadcast under sustained load.

    Each rumor from the {!Arrivals} schedule is injected at its origin and
    spreads epidemically: every node carrying at least one {e active}
    rumor flips a coin each slot between broadcasting a uniformly random
    active rumor on a uniformly random channel and listening; nodes with
    nothing to spread listen on a random channel. A node learns a rumor
    either by hearing the slot's winner or by losing a contention slot to
    it (per §2 a losing broadcaster receives the winner's message).

    Per-rumor termination follows the Gossip-Algorithm exemplar: a node
    retires a rumor — stops offering it for broadcast — once it has heard
    it [hear_limit] further times after learning it, bounding the chatter
    each rumor generates without a global stop signal. A rumor {e
    completes} when all [n] nodes know it; the machine finishes when every
    scheduled rumor has been injected and completed.

    With a trace supplied the machine records {!Crn_radio.Trace.Injected},
    {!Crn_radio.Trace.Rumor_delivered} (with the parent it learned from)
    and {!Crn_radio.Trace.Rumor_done} events, which
    {!Crn_radio.Trace.Check.rumor_causality} replays. *)

type msg = { rumor : int }

type result = {
  slots_run : int;
  total_rumors : int;
  injected : int;  (** Rumors handed to their origins so far. *)
  completed : int;  (** Rumors known by all [n] nodes. *)
  deliveries : int;  (** Non-origin nodes that learned some rumor. *)
  retired : int;  (** (node, rumor) pairs retired by the hear counter. *)
  completed_at : int option;
      (** Slots consumed when the last rumor completed, if all did. *)
  latencies : float array;
      (** Per completed rumor: [done_slot - injected_slot + 1]. *)
}

include module type of struct
  include Crn_radio.Machine
end

type machine = (msg, result) t

val default_hear_limit : n:int -> int
(** The retirement threshold used when [hear_limit] is omitted:
    [8 + 4 * ceil(log2 n)] — the exemplar's constant counter scaled so
    that retirement cannot plausibly outrun full coverage. *)

val machine :
  ?hear_limit:int ->
  ?trace:Crn_radio.Trace.t ->
  arrivals:Arrivals.arrival array ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  unit ->
  machine
(** Builds the whole-network machine. Splits one generator per node off
    [rng] (after the arrival schedule's own stream), so runs are
    deterministic per seed on any backend. *)
