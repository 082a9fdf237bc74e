(** The slot-synchronous radio engine implementing the paper's §2 model.

    Per slot, every node submits a {!Action.decision} (a local channel label
    plus broadcast/listen). The engine translates labels to global channels
    through the slot's {!Crn_channel.Dynamic} assignment, resolves contention
    — on each channel with at least one audible broadcaster, one broadcaster
    chosen uniformly at random wins and is delivered to every listener on
    that channel — and feeds back the outcome to each node ({!Action.Won},
    {!Action.Lost}, {!Action.Heard}, {!Action.Silence}, {!Action.Jammed}).

    With a jammer installed, an action on a channel jammed *at that node*
    is absorbed: the node receives {!Action.Jammed}, a jammed broadcaster is
    not eligible to win, and a jammed listener hears nothing. This is the
    receiver-side interference semantics used by the Theorem 18 reduction
    experiments. Reactive jammers ({!Jammer.observes}) additionally receive
    the slot's audible per-channel broadcaster counts via {!Jammer.observe}
    at the end of every slot.

    With a fault schedule installed, a node that is down in a slot is
    absent from it entirely: no decision is requested, nothing is sent or
    heard, and no feedback is delivered — the semantics of a transient
    outage in §1's robustness discussion.

    The engine is polymorphic in the message type, so different protocols
    bring their own message variants without an untyped union.

    {b Canonical resolution order.} Within a slot, channels are resolved in
    ascending global channel id. This fixes the order in which the shared
    [rng] is consumed (one draw per channel with two or more audible
    broadcasters, none otherwise), so winners — and therefore traces,
    counters and every downstream result — are a deterministic function of
    the seed, never of hashtable bucket layout. The winner on a channel is
    the broadcaster at the drawn index in descending node id. Reactive
    jammers receive the slot's occupancy in ascending channel order.

    {b Feedback order.} Every run, traced or not, delivers feedback in
    ascending node id. Traced runs record each slot's events in the order
    documented in {!Trace}, byte-equal to {!Reference.engine_run}'s.

    {b Protocols are machines.} Every protocol is a {!Machine.t} that
    {!Runner.drive} hands to {!Soa.run} through {!Soa_adapter.machine}; the
    {!Runner.Engine} backend is that loop at one shard. This module's
    closure-per-node {!node} array and {!run} are a wrapper kept for the
    benchmark ([perfbench/]) and the engine tests, which compile against
    them: [run] validates the array and runs it as
    {!Soa_adapter.of_nodes} on {!Soa.run} at one shard. There is one slot
    loop, and {!Reference.engine_run} is the list-based executable
    specification it is differentially tested against. *)

type 'msg node = 'msg Action.node = {
  id : int;  (** Must equal the node's index in the [nodes] array. *)
  decide : slot:int -> 'msg Action.decision;
  feedback : slot:int -> 'msg Action.feedback -> unit;
}

type outcome = Soa.outcome = {
  slots_run : int;
      (** Number of slots executed (equals [max_slots] unless [stop] fired). *)
  stopped_early : bool;
  counters : Trace.Counters.t;
}

val run :
  ?jammer:Jammer.t ->
  ?faults:Faults.t ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?stop:(slot:int -> bool) ->
  ?on_slot_end:(slot:int -> unit) ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  nodes:'msg node array ->
  max_slots:int ->
  unit ->
  outcome
(** [run ~availability ~rng ~nodes ~max_slots ()] executes up to [max_slots]
    slots. [stop ~slot] is evaluated after each slot (with the 0-based index
    of the slot just completed) and ends the run when it returns [true].
    With [?trace] supplied, every slot appends {!Trace.Decide}, {!Trace.Win},
    {!Trace.Deliver}, {!Trace.Silent}, {!Trace.Jam} and {!Trace.Down} events
    to it, in the per-slot order documented in {!Trace}; without it no
    event is allocated.
    Raises [Invalid_argument] if node ids are inconsistent, the node count
    disagrees with [availability], [max_slots] is negative, [metrics] is
    sized for a different node count, or a node submits an out-of-range
    label (that last one is reported by {!Soa.run}). *)

val node :
  id:int ->
  decide:(slot:int -> 'msg Action.decision) ->
  feedback:(slot:int -> 'msg Action.feedback -> unit) ->
  'msg node
