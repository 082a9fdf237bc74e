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
    rather than a dynamic availability — and, like the paper's protocol,
    fault-free execution: the phase-2 roster and phase-3 rewind arguments
    rely on every node acting in every slot. COGCAST alone carries the §7
    dynamic/fault tolerance. *)

type 'a result = {
  complete : bool;
      (** Phase 1 informed everyone and phase 4 drained every node. *)
  root_value : 'a option;
      (** The source's aggregate — [Some] iff [complete]. *)
  phase1_slots : int;
  phase2_slots : int;
  phase3_slots : int;
  phase4_steps : int;
  phase4_slots : int;
  total_slots : int;
  tree : Disttree.t;
  mediators : int list;  (** Elected mediators, ascending id. *)
  terminated : bool array;  (** Per-node phase-4 termination. *)
  max_payload : int;
      (** Largest payload (per [?measure]) carried by any phase-4 value
          message; [0] when no measure was supplied. *)
  total_payload : int;  (** Sum of measured payloads over all value sends. *)
  counters : Crn_radio.Trace.Counters.t;
      (** Slot counters summed over all four phases; [slots_run] equals
          [total_slots]. *)
  failed_sessions : int;
      (** Contention sessions that hit their cap, summed over all four
          phases; [0] on the abstract engine. *)
}

val run_emulated :
  ?strategy:Crn_radio.Emulation.strategy ->
  ?session_cap:int ->
  ?jammer:Crn_radio.Jammer.t ->
  ?faults:Crn_radio.Faults.t ->
  ?budget_factor:float ->
  ?max_phase4_steps:int ->
  ?mediated:bool ->
  ?measure:('a -> int) ->
  ?trace:Crn_radio.Trace.t ->
  monoid:'a Aggregate.monoid ->
  values:'a array ->
  source:int ->
  assignment:Crn_channel.Assignment.t ->
  k:int ->
  rng:Crn_prng.Rng.t ->
  unit ->
  'a result * int
(** All four phases executed over the raw collision radio
    ({!Crn_radio.Emulation}): every abstract slot of every phase is realized
    by contention sessions — decay backoff by default, CSMA/CA with
    [~strategy:Csma] — so the complete aggregation stack runs without the
    §2 one-winner abstraction. Returns the result paired with the total raw
    rounds consumed across all phases. Correct for the same reason the
    abstract version is — the emulation preserves the one-winner semantics
    per slot w.h.p. (a session that does fail its cap surfaces as
    {!Crn_radio.Action.No_winner} to its broadcasters, and the phases
    degrade exactly as they would under a lost slot). [?jammer]/[?faults]
    compose at the abstract-slot level with the same caveats as {!run}. *)

val run :
  ?jammer:Crn_radio.Jammer.t ->
  ?faults:Crn_radio.Faults.t ->
  ?budget_factor:float ->
  ?max_phase4_steps:int ->
  ?mediated:bool ->
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
    indicates a genuine failure and yields [complete = false]).

    [?jammer]/[?faults] thread adversaries through every phase's engine run
    — but the plain protocol makes {e no} attempt to survive them: a missed
    slot can corrupt rosters, mediator election or the drain, typically
    yielding [complete = false] (or, for aggressive schedules, a genuinely
    wrong partial fold). They exist so the chaos harness can measure that
    degradation; use {!Cogcomp_robust} for runs that should tolerate faults.

    With [?trace] supplied, the run streams a slot-level event log: the
    phase-1 COGCAST header and [Informed] tree edges, a
    {!Crn_radio.Trace.Phase} marker at each phase boundary (slot numbering
    restarts per phase), {!Crn_radio.Trace.Mediator} elections after phase
    2, the engine's per-slot events throughout, phase 4's
    [Sent_value]/[Value_delivered]/[Retired] drain events, and a final
    [Phase "cogcomp-done"] marker iff the run completed — the stream
    {!Crn_radio.Trace.Check} validates. *)
