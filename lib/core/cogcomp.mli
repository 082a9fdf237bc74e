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
    dynamic/fault tolerance.

    Every phase is ordinary one-winner slots, so by footnote 4 the whole
    protocol runs on any {!Crn_radio.Runner.backend}: the abstract engine,
    the sharded SoA loop, the reference specification, or the raw
    collision radio (emulation). *)

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
    {!Crn_radio.Trace.Check} validates.

    Raises [Invalid_argument] naming [Cogcomp.run], before any slot runs,
    on a [values] length mismatch, a [source] out of range, a
    [budget_factor] that is not finite and positive, or a negative
    [max_phase4_steps]. *)

(** {2 Building blocks shared with robust COGCOMP}

    Every phase is a {!Crn_radio.Machine.t} run by
    {!Crn_radio.Runner.drive}: phase 1 is {!Cogcast.machine}, and phase 2's
    roster exchange, the phase-3 rewind and the phase-4 drain are machines
    whose snapshot is the phase's output. The robust variant reuses phase
    1, the phase runners, phase 2's roster collection and the phase-3
    rewind unchanged; only what phase 2 derives from the rosters, and
    phase 4, differ. *)

val validate :
  who:string ->
  ?budget_factor:float ->
  ?max_phase4_steps:int ->
  values:'a array ->
  source:int ->
  assignment:Crn_channel.Assignment.t ->
  unit ->
  unit
(** The argument checks of {!run}, with errors prefixed by [who]. *)

val phase1 :
  ?jammer:Crn_radio.Jammer.t ->
  ?faults:Crn_radio.Faults.t ->
  ?trace:Crn_radio.Trace.t ->
  ?backend:Crn_radio.Runner.backend ->
  ?budget_factor:float ->
  source:int ->
  assignment:Crn_channel.Assignment.t ->
  k:int ->
  rng:Crn_prng.Rng.t ->
  unit ->
  Cogcast.result * (string -> Crn_radio.Runner.t) * Crn_radio.Runner.outcome ref
(** [phase1 … ()] runs phase 1 — a recorded COGCAST of fixed length,
    {!Complexity.cogcast_slots} scaled by [budget_factor] — and returns its
    result, a factory for the later phases' runners and the running total.
    The factory, given a phase name, records a {!Crn_radio.Trace.Phase}
    marker of that name and makes a runner on the same backend, with the
    same adversaries and trace, on the next stream split from [rng]; every
    run of such a runner is added into the total, which starts at phase
    1's cost. *)

type roster = {
  participant : (int * int) option array;
      (** [Some (r, label)] for every node phase 1 informed, the source
          excepted: the slot and the channel label it was informed on. *)
  rosters : (int * int) list array;
      (** Per participant, the [(id, r)] of every roster broadcast it heard
          on its channel, its own included; [[]] for the others. *)
  sent_ok : bool array;  (** The participant won its roster slot. *)
  slots_run : int;
}
(** What phase 2's roster exchange leaves each node. *)

val collect_rosters :
  cast:Cogcast.result -> rounds:int -> runner:Crn_radio.Runner.t -> roster
(** Phase 2's exchange: every participant camps on the channel it was
    informed on and broadcasts [⟨id, r⟩] until it wins, then listens.
    Fault-free it takes exactly [n] slots at any [rounds >= 1], since each
    participant wins within the first [n]. Otherwise the run goes on past
    [n] slots until every participant has won, for at most [rounds · n]
    slots: plain COGCOMP passes [rounds = 1], robust COGCOMP adds its
    watchdog rounds. *)

val elect : r:int -> (int * int) list -> int * int
(** [elect ~r roster] is the size of the cluster [r] in [roster] and the
    channel's mediator, the smallest id in its latest cluster
    (Lemma 7). *)

val run_phase3 :
  cast:Cogcast.result ->
  cluster_size:(int -> int) ->
  runner:Crn_radio.Runner.t ->
  (int * int * int) list array * int
(** The phase-3 rewind over [cast]'s phase-1 logs: in the mirror of the
    slot where node [v] was informed it broadcasts [cluster_size v]; in
    every other slot it listens, and keeps what it hears where its phase-1
    broadcast won. Returns, per node, the [(phase-1 slot, label, size)] of
    every cluster it informed (descending slot), and the phase's slot
    count. *)
