(** Fault-tolerant COGCOMP: the four-phase aggregation of {!Cogcomp}
    hardened against crash/restart faults, churn and jamming.

    The plain protocol's phase arguments assume every node acts in every
    slot; a single missed slot can corrupt rosters, strand the drain behind
    a dead mediator, or stall a sender forever. This variant keeps the same
    phase structure and adds three recovery mechanisms, each bounded so a
    faulty run always terminates:

    {ul
    {- {b Phase-2 watchdog.} The roster phase keeps running (in extra rounds
       of [n] slots, up to [watchdog_retries] of them) while some
       participant has not yet won its roster slot. A participant that
       exhausts the budget is {e written off}: absent from every roster, it
       takes no part in phase 4 and its subtree is recorded as lost.}
    {- {b Mediator re-election.} Every phase-2 participant learns the full
       succession order for its channel — the elected mediator first, then
       the remaining roster ids ascending. A sender that hears [timeout]
       consecutive silent announce slots (after the channel first went
       live) advances to the next candidate; the new mediator takes over
       announcing. When the candidate list is exhausted the channel
       degenerates to an unmediated free-for-all drain.}
    {- {b Bounded-retry drain with acks.} Phase-4 value sends treat the
       receiver's echo as an acknowledgement. A send that observes a silent
       echo slot is retried with exponential backoff
       ({!Crn_radio.Backoff.retry_delay}, capped); after [max_retries]
       unacked attempts the sender abandons and retires, recording its
       subtree as lost. Receivers deduplicate by sender id, so a retry of a
       value that was already folded is re-acked without being counted
       again ({!Crn_radio.Trace.Check.exactly_once_drain}).}}

    {b Fault-free parity.} With neither [?faults] nor [?jammer] supplied,
    every robust mechanism is disarmed (its trigger counters never advance)
    and the run is {e bit-identical} to {!Cogcomp.run} on the same
    backend: same root value, same per-phase slot counts, same RNG stream.
    The robust machinery costs nothing until an adversary is actually
    installed. *)

type 'a result = {
  complete : bool;
      (** Phase 1 informed everyone, every node terminated, and every
          value reached the source ([coverage = n]). *)
  root_value : 'a;
      (** The source's accumulator — the fold of every value whose delivery
          chain reached the source. Equals the full aggregate iff
          [lost = []]; on faulty runs it is the partial fold over the
          covered nodes. *)
  coverage : int;
      (** Number of nodes whose value reached the source (the source
          included). [coverage + List.length lost = n]. *)
  lost : int list;
      (** Ids (ascending) whose values did not reach the source: nodes
          written off in phase 2, senders that exhausted their retries, and
          every node whose delivery chain passes through one of those. *)
  reelections : int;
      (** Mediator accessions after the initial election — candidates that
          actually took over a channel. *)
  retries : int;  (** Phase-4 value sends that were re-sends. *)
  phase1_slots : int;
  phase2_slots : int;
  phase3_slots : int;
  phase4_steps : int;
  phase4_slots : int;
  total_slots : int;
  tree : Disttree.t;
  mediators : int list;  (** Initially elected mediators, ascending id. *)
  terminated : bool array;  (** Per-node phase-4 termination. *)
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
  ?watchdog_retries:int ->
  ?timeout:int ->
  ?max_retries:int ->
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
    [values.(v)] over all [v] to [source], tolerating whatever [?faults] /
    [?jammer] throw at it.

    [watchdog_retries] (default [2]) bounds the extra phase-2 rounds;
    [timeout] (default [6]) is the silent-step streak that triggers mediator
    re-election and head-cluster skipping; [max_retries] (default [8])
    bounds unacked phase-4 sends per node. [max_phase4_steps] defaults to
    [48·n + 256] on faulty runs ([12·n + 64] fault-free, matching plain
    COGCOMP). [budget_factor] scales the phase-1 COGCAST budget and
    [?backend] picks the slot loop of every phase, both as in
    {!Cogcomp.run}.

    The watchdogs arm only when [?faults] or [?jammer] is supplied. On an
    emulation backend alone they stay disarmed, so a contention session
    that fails its cap is not recovered from: the run degrades exactly as
    plain COGCOMP does. With a tight [session_cap] (e.g. 3) neither variant
    completes.

    The run always terminates: every watchdog is bounded, and the phase-4
    stop also fires when every non-terminated node has been absent for a
    grace period (crashed or churned out for good).

    With [?trace] supplied the run emits the same stream as {!Cogcomp.run}
    (phase markers, [Mediator] elections — re-elections included —
    [Sent_value] for every attempt, [Value_delivered] only for fresh
    deliveries, [Retired], and [Phase "cogcomp-done"] iff complete), which
    {!Crn_radio.Trace.Check.all} validates including
    {!Crn_radio.Trace.Check.exactly_once_drain}.

    Raises [Invalid_argument] naming [Cogcomp_robust.run], before any slot
    runs, on every argument {!Cogcomp.run} rejects, on a negative
    [watchdog_retries], on [timeout < 1] and on [max_retries < 0]. *)
