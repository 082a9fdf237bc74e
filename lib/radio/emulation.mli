(** Emulation of the §2 one-winner slot model on the raw collision radio —
    the end-to-end composition of footnote 4.

    {!Engine.run} *assumes* the contention abstraction; this module
    *implements* it: each abstract slot expands into one contention session
    per active channel (sessions on distinct channels run concurrently, so
    an abstract slot costs the maximum session length over its channels).
    The {!strategy} picks the realization:

    {ul
    {- {!Decay} ({!Backoff.session}) — the footnote's decay protocol:
       contenders transmit with exponentially decreasing probability; the
       first sub-round with a unique transmitter delivers its message, in
       [O(log² n)] raw rounds w.h.p.;}
    {- {!Csma} ({!Csma.session}) — classic CSMA/CA: carrier-sensed backoff
       windows doubling per collision, delivery confirmed by an explicit
       ACK round. Needs no population estimate, but offers no
       polylogarithmic high-probability bound.}}

    In either case every other node on the channel — listeners and losing
    contenders alike — ends the session having heard the delivered message,
    which matches the model's "failed broadcasters receive the message that
    was sent"; the winner learns of its success from the session itself.

    Protocols ({!Machine.t}s, through {!Runner.drive}) run unchanged; the
    outcome additionally reports the raw rounds consumed, so experiments can
    measure the emulation overhead (E22, E25). A session that fails to
    isolate a winner within the per-slot cap delivers nothing on that
    channel for that slot: its broadcasters receive {!Action.No_winner} (a
    contender knows it burned the whole window without a clean
    transmission), while its listeners receive {!Action.Silence} — a failed
    session is physically indistinguishable from an idle channel on the
    listening side.

    Faults and jamming compose at the abstract-slot level with the same
    semantics as {!Engine.run}: a down node is absent for the slot; a
    jammed node's action is absorbed before its channel's contention
    session starts and it receives {!Action.Jammed} (so
    [counters.jammed_actions] is live on this backend too). For adversaries
    *inside* a single session, drive {!Raw_radio.run} directly — its
    [?jammer]/[?faults] address raw rounds. *)

type strategy =
  | Decay  (** {!Backoff.session}: decay backoff, [O(log² n)] w.h.p. *)
  | Csma  (** {!Csma.session}: CSMA/CA with ACK confirmation. *)

type outcome = {
  slots_run : int;  (** Abstract slots executed. *)
  raw_rounds : int;
      (** Raw radio rounds consumed (sum over slots of the per-slot
          maximum session length, each at least 1). *)
  failed_sessions : int;
      (** Sessions that hit the cap without isolating a winner; those
          channels deliver nothing in that slot (broadcasters receive
          {!Action.No_winner}, listeners {!Action.Silence}). *)
  stopped_early : bool;
  counters : Trace.Counters.t;
      (** The same always-on channel accounting {!Engine.run} maintains:
          [wins] counts successful sessions, [contended] channels with two
          or more broadcasters (succeeded or not), [jammed_actions] the
          slot-level actions absorbed by the jammer. *)
}

val run_machine :
  ?strategy:strategy ->
  ?session_cap:int ->
  ?jammer:Jammer.t ->
  ?faults:Faults.t ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?stop:(slot:int -> bool) ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  machine:('msg, _) Machine.t ->
  max_slots:int ->
  unit ->
  outcome
(** Same contract as {!Engine.run}. [strategy] selects the contention
    realization (default {!Decay}). [session_cap] bounds each contention
    session in raw rounds (default [4·(⌈lg n⌉+1)²], the
    {!Backoff.expected_rounds_bound} — sized for decay; CSMA/CA under heavy
    contention may exhaust it, which shows up as [failed_sessions]); a
    slot without sessions costs one raw round. With [?trace] supplied,
    each slot appends {!Trace.Decide}, {!Trace.Session} (one per active
    channel, [ok=false] when the session hit the cap), {!Trace.Win},
    {!Trace.Deliver}, {!Trace.Silent} and — under adversaries —
    {!Trace.Down}/{!Trace.Jam} events, in the per-slot order documented in
    {!Trace}; without it no event is allocated.

    Channels are resolved — and the shared [rng] consumed by the contention
    sessions — in ascending global channel id, the same canonical order as
    {!Engine.run}, so session lengths and winners are a function of the
    seed alone.

    [run_machine] runs [machine]'s decide/feedback (its [finished] is not
    consulted: [stop] ends the run) on {!Soa.run} at one shard, through
    {!Soa_adapter.machine}, with the contention session as {!Soa.run}'s
    [resolve]; it is the emulation backends of {!Runner.drive}.
    {!Reference.emulation_run} is its executable specification.

    Raises [Invalid_argument] naming [Emulation.run] if [availability] has
    no nodes, [max_slots] is negative, [session_cap < 1], or [metrics] is
    sized for a different node count; an out-of-range label is reported by
    {!Soa.run}. *)

val run :
  ?strategy:strategy ->
  ?session_cap:int ->
  ?jammer:Jammer.t ->
  ?faults:Faults.t ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?stop:(slot:int -> bool) ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  nodes:'msg Engine.node array ->
  max_slots:int ->
  unit ->
  outcome
(** The node-array wrapper: {!run_machine} on
    [Soa_adapter.of_nodes nodes], after {!Soa_adapter.check_nodes} (node
    ids must be consistent and the count must match [availability]). *)
