(** Uniform random channel hopping — the basic randomized rendezvous
    primitive the paper cites as achieving [O(c²/k)] expected meeting time
    for a pair of nodes (§1).

    In every slot each node tunes to a uniformly random channel of its set;
    two nodes rendezvous in the first slot they land on a common channel.
    Per slot the meeting probability is at least [k/c²], so the expectation
    is at most [c²/k].

    {!pair} and {!source_meets_all} are closed-form loops over the channel
    assignment alone; {!machine} is the same source-meets-all process as an
    engine-driven state machine (the source beacons on its draw, unmet nodes
    draw and listen, met nodes park), for the {!Crn_proto.Protocol} layer. *)

val pair :
  rng:Crn_prng.Rng.t ->
  assignment:Crn_channel.Assignment.t ->
  u:int ->
  v:int ->
  max_slots:int ->
  int option
(** [pair ~rng ~assignment ~u ~v ~max_slots] is the 1-based slot at which
    nodes [u] and [v] first choose the same global channel, or [None] if
    that never happens within [max_slots]. *)

val source_meets_all :
  rng:Crn_prng.Rng.t ->
  assignment:Crn_channel.Assignment.t ->
  source:int ->
  max_slots:int ->
  int option
(** The number of slots until the source has shared a channel at least once
    with every other node (each node hopping independently) — the schedule
    skeleton of the rendezvous broadcast baseline. *)

type msg = Beacon

type result = { completed_at : int option; slots_run : int; met_count : int }

include module type of struct
  include Crn_radio.Machine
end

type machine = (msg, result) t

val machine :
  source:int ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  machine
(** Engine port of {!source_meets_all}: the source broadcasts a beacon on a
    fresh uniform draw each slot, every still-unmet node draws and listens,
    and nodes that have met the source park on label 0 without consuming
    randomness. All draws come from the single shared [rng] — not per-node
    streams — mirroring the pure loop. For [source = 0] on fault-free runs
    the slot count is {e identical} to {!source_meets_all} on the same
    stream, because the engine polls [decide] in ascending node id, exactly
    the pure loop's draw order (and, with a single broadcaster, the engine
    never draws for contention). For a nonzero source the interleaving of
    draws differs but the process is the same. *)
