(** COGCOMP (§5): data aggregation in
    [O((c/k)·max{1, c/n}·lg n + n)] slots w.h.p. (Theorem 10).

    Every node holds a value; the source must learn the monoid fold of all
    values. The protocol runs four globally synchronized phases:

    {ol
    {- {b Phase 1} — COGCAST from the source with full action logging. The
       first informer of each node becomes its parent, building the
       distribution tree (Lemma 5).}
    {- {b Phase 2} — exactly [n] slots. Every informed node camps on the
       channel it was informed on and broadcasts [⟨id, r⟩] until it wins,
       then listens. Under the one-winner model each node on a channel wins
       exactly once, so everyone learns the full roster of its channel:
       cluster sizes (Lemma 7a) and the channel's unique mediator — the
       smallest id in the channel's latest cluster (Lemma 7b).}
    {- {b Phase 3} — a slot-by-slot time reversal of phase 1. Where a node's
       phase-1 broadcast won, it now listens; where it was first informed, it
       now broadcasts its cluster's size. Each informer thereby learns which
       clusters it created and their sizes (Lemma 9).}
    {- {b Phase 4} — steps of three slots. Receivers collect from their
       clusters in descending phase-1-slot order; per channel, the mediator
       announces which cluster may send (slot 1), one cluster member wins the
       send (slot 2), and the receiver echoes the delivered id (slot 3),
       retiring that sender. Aggregation drains in [O(n)] steps.}}

    The phases assume the static channel assignment of §2 (channels must
    keep their meaning across phases), hence the [Assignment.t] parameter
    rather than a dynamic availability. The paper's phase arguments also
    assume every node acts in every slot; a single missed slot can corrupt
    rosters, strand the drain behind a dead mediator, or stall a sender
    forever. [~recover:true] hardens the run against crash/restart faults,
    churn and jamming with three mechanisms, each bounded so a faulty run
    always terminates:

    {ul
    {- {b Phase-2 watchdog.} The roster phase keeps running (for up to two
       extra rounds of [n] slots) while some participant has not yet won
       its roster slot. A participant that never wins is {e written off}:
       absent from every roster, it takes no part in phase 4 and its
       subtree is recorded as lost.}
    {- {b Mediator re-election.} Every phase-2 participant learns the full
       succession order for its channel — the elected mediator first, then
       the remaining roster ids ascending. A sender that hears six
       consecutive silent announce slots (after the channel first went
       live) advances to the next candidate; the new mediator takes over
       announcing. When the candidate list is exhausted the channel
       degenerates to the unmediated drain of [~mediated:false].}
    {- {b Bounded-retry drain.} A send that observes a silent echo slot is
       retried with exponential backoff ({!Crn_radio.Backoff.retry_delay},
       capped); after eight unacked attempts the sender abandons and
       retires, recording its subtree as lost.}}

    Receive is idempotent whether or not recovery is armed: the echo is an
    acknowledgement, and receivers deduplicate by sender id, so a re-sent
    value that was already folded is re-acked without being counted again
    ({!Crn_radio.Trace.Check.exactly_once_drain}).

    Every phase is ordinary one-winner slots, so by footnote 4 the whole
    protocol runs on any {!Crn_radio.Runner.backend}: the abstract engine,
    the sharded SoA loop, the reference specification, or the raw
    collision radio (emulation). *)

type 'a result = {
  complete : bool;
      (** Phase 1 informed everyone, every node terminated, and every value
          reached the source ([coverage = n]). *)
  root_value : 'a;
      (** The source's accumulator — the fold of every value whose delivery
          chain reached the source. It is the full aggregate iff
          [complete]; otherwise it is the partial fold over the covered
          nodes. *)
  coverage : int;
      (** Number of nodes whose value reached the source (the source
          included). [coverage + List.length lost = n]. *)
  lost : int list;
      (** Ids (ascending) whose values did not reach the source: nodes
          phase 1 never informed, nodes written off in phase 2, senders
          that gave up or were stranded, and every node whose delivery
          chain passes through one of those. *)
  reelections : int;
      (** Mediator accessions after the initial election — candidates that
          actually took over a channel; [0] unless recovery is armed. *)
  retries : int;
      (** Phase-4 value sends that were re-sends; [0] unless recovery is
          armed. *)
  phase1_slots : int;
  phase2_slots : int;
  phase3_slots : int;
  phase4_steps : int;
  phase4_slots : int;
  total_slots : int;
  tree : Disttree.t;
  mediators : int list;  (** Initially elected mediators, ascending id. *)
  terminated : bool array;  (** Per-node phase-4 termination. *)
  max_payload : int;
      (** Largest payload (per [?measure]) carried by any phase-4 value
          message; [0] when no measure was supplied. *)
  total_payload : int;  (** Sum of measured payloads over all value sends. *)
  counters : Crn_radio.Trace.Counters.t;
      (** Slot counters summed over all four phases; [slots_run] equals
          [total_slots]. *)
  raw_rounds : int;
      (** Raw radio rounds consumed, summed over all four phases; [0] on
          the abstract backends. *)
  failed_sessions : int;
      (** Contention sessions that hit their cap, summed over all four
          phases; [0] on the abstract backends. *)
}

val run :
  ?jammer:Crn_radio.Jammer.t ->
  ?faults:Crn_radio.Faults.t ->
  ?backend:Crn_radio.Runner.backend ->
  ?budget_factor:float ->
  ?max_phase4_steps:int ->
  ?mediated:bool ->
  ?recover:bool ->
  ?measure:('a -> int) ->
  ?trace:Crn_radio.Trace.t ->
  monoid:'a Aggregate.monoid ->
  values:'a array ->
  source:int ->
  assignment:Crn_channel.Assignment.t ->
  k:int ->
  rng:Crn_prng.Rng.t ->
  unit ->
  'a result
(** [run ~monoid ~values ~source ~assignment ~k ~rng ()] aggregates
    [values.(v)] over all [v] to [source]. [values] must have one entry per
    node. [budget_factor] scales the phase-1 COGCAST budget
    ({!Complexity.cogcast_slots}); [max_phase4_steps] caps phase 4 (default
    [12·n + 64] steps, far above the [O(n)] the paper proves, so hitting it
    indicates a genuine failure and yields [complete = false]; [48·n + 256]
    when recovery is armed).

    [?mediated] (default [true]) is §5's mediator. With [false] no node
    mediates and every sender sends in every step, contention alone
    deciding who is delivered: the succession list exhausted from the
    start. [?measure] sizes every value send's payload into
    [max_payload]/[total_payload].

    [?backend] (default {!Crn_radio.Runner.Engine}) runs every phase —
    phase 1's COGCAST and phases 2–4 — on that slot loop. Results are
    identical on [Engine], [Reference] and [Soa] at any shard count, and
    traces on [Engine] and [Reference] are byte-identical. On a [Soa]
    backend only the channel phases shard; phases 2–4 call their nodes
    sequentially, since phase 4's nodes share drain state. On an
    [Emulation] backend every abstract slot is realized by contention
    sessions on the raw collision radio — decay backoff or CSMA/CA — and
    [raw_rounds]/[failed_sessions] report the cost. That run is correct
    for the same reason the abstract one is: the emulation preserves the
    one-winner semantics per slot w.h.p., and a session that does fail its
    cap surfaces as {!Crn_radio.Action.No_winner} to its broadcasters, so
    the phases degrade exactly as under a lost slot.

    [?jammer]/[?faults] thread adversaries through every phase's engine
    run. The recovery mechanisms arm exactly when [recover] (default
    [false]) is [true] and one of them is supplied. Disarmed, the run is
    the paper's protocol and makes {e no} attempt to survive a missed
    slot: it typically ends with [complete = false] and a partial
    [root_value]. A contention session that fails its cap on an emulation
    backend is not an adversary, so it is never recovered from: with a
    tight [session_cap] (e.g. 3) the run does not complete. The run always
    terminates: every watchdog is bounded, and the armed phase-4 stop also
    fires when every non-terminated node has been absent for a grace
    period (crashed or churned out for good).

    With [?trace] supplied, the run streams a slot-level event log: the
    phase-1 COGCAST header and [Informed] tree edges, a
    {!Crn_radio.Trace.Phase} marker at each phase boundary (slot numbering
    restarts per phase), {!Crn_radio.Trace.Mediator} elections after phase
    2 (and re-elections, when armed), the engine's per-slot events
    throughout, phase 4's drain events — [Sent_value] for every attempt,
    [Value_delivered] for fresh deliveries only, [Retired] — and a final
    [Phase "cogcomp-done"] marker iff the run completed: the stream
    {!Crn_radio.Trace.Check} validates.

    Raises [Invalid_argument] naming [Cogcomp.run], before any slot runs,
    on a [values] length mismatch, a [source] out of range, a
    [budget_factor] that is not finite and positive, or a negative
    [max_phase4_steps]. *)
