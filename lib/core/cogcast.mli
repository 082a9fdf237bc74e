(** COGCAST (§4): epidemic local broadcast.

    In every slot, every node picks a channel uniformly at random from its
    own channel set; nodes that already know the message broadcast it, the
    rest listen. Theorem 4: after [Θ((c/k)·max{1, c/n}·lg n)] slots all
    nodes are informed w.h.p.

    The protocol is a {!Crn_radio.Machine.t} ({!machine}), run by
    {!Crn_radio.Runner.drive} on any backend, so it works unchanged
    under dynamic channel assignments (§7) and under jamming (through the
    Theorem 18 availability reduction or the engine's receiver-side jammer).

    Because a node broadcasts in every slot after being informed, it is
    informed exactly once; designating the first informer as the parent
    yields the *distribution tree* that COGCOMP builds on. With
    [~record:true] the per-slot action log needed by COGCOMP's phases 2–4 is
    retained. *)

type msg = Init

type event =
  | Sent_won  (** Broadcast this slot and was the channel's winner. *)
  | Sent_lost  (** Broadcast and lost the channel to another broadcaster. *)
  | Got_informed of { parent : int }  (** Heard the message for the first time. *)
  | Heard_silence  (** Listened and heard nothing. *)
  | Was_jammed  (** The action was absorbed by a jammer. *)
  | Session_failed
      (** Broadcast on a channel whose contention session hit its round cap
          without isolating a winner ({!Crn_radio.Action.No_winner}); only
          on the emulation backends. *)

type slot_log = { label : int; event : event }
(** What one node did in one slot ([label] is the local channel label it
    tuned to). *)

type result = {
  n : int;
  source : int;
  completed_at : int option;
      (** Slot count after which all nodes were informed; [None] if the run
          hit [max_slots] first. *)
  slots_run : int;
  informed : bool array;
  informed_count : int;
  parent : int option array;
      (** [parent.(v)] is the node that first informed [v]; [None] for the
          source and for uninformed nodes. *)
  informed_at : int option array;  (** Slot at which each node was informed. *)
  informed_label : int option array;
      (** Local label of the channel on which each node was informed. *)
  logs : slot_log array array option;
      (** [logs.(v)] is node [v]'s per-slot log (present iff [~record:true]).
          Entries beyond a stopped run keep their defaults. *)
  counters : Crn_radio.Trace.Counters.t;
      (** Aggregate channel accounting from the engine run. *)
  raw_rounds : int;
      (** Raw radio rounds consumed; [0] on the abstract backends. *)
  failed_sessions : int;
      (** Emulation contention sessions that hit their round cap; [0] on
          the abstract backends. *)
}

include module type of struct
  include Crn_radio.Machine
end

type machine = (msg, result) t

val machine :
  ?trace:Crn_radio.Trace.t ->
  ?record_slots:int ->
  ?stop_when_complete:bool ->
  source:int ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  unit ->
  machine
(** COGCAST as a state machine, shard-safe: {!run} drives it, as does the
    registry's [cogcast] entry, on a runner over the same [rng] (one label
    stream per node is split from it first). [finished] holds once every
    node is informed (never with [stop_when_complete:false]);
    [record_slots] keeps per-node logs of that many slots; [trace] gets
    the {!Crn_radio.Trace.Informed} edges, not the preamble. The
    snapshot's engine accounting ([counters], [raw_rounds],
    [failed_sessions]) is zero: {!run} fills it from the run's outcome.
    Raises [Invalid_argument] naming [Cogcast.run] if [source] is out of
    range. *)

val run :
  ?pool:Crn_exec.Pool.t ->
  ?jammer:Crn_radio.Jammer.t ->
  ?faults:Crn_radio.Faults.t ->
  ?metrics:Crn_radio.Metrics.t ->
  ?trace:Crn_radio.Trace.t ->
  ?backend:Crn_radio.Runner.backend ->
  ?record:bool ->
  ?stop_when_complete:bool ->
  source:int ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  max_slots:int ->
  unit ->
  result
(** [run ~source ~availability ~rng ~max_slots ()] executes COGCAST from
    [source]. By default the run stops as soon as every node is informed
    ([stop_when_complete], default [true]); with [record:true] it keeps full
    logs (memory [n · slots_run]). With [?trace] supplied, a
    {!Crn_radio.Trace.Meta} and a [Phase "cogcast"] marker are recorded up
    front, the engine streams its slot events into it, and every first
    reception adds a {!Crn_radio.Trace.Informed} tree edge. [?backend]
    selects the slot-loop implementation through {!Crn_radio.Runner}
    (default {!Crn_radio.Runner.Engine}). On a
    {!Crn_radio.Runner.Emulation} backend the same protocol runs on the
    raw collision radio — the footnote-4 composition, each abstract slot
    realized by per-channel contention sessions — and the result's
    [raw_rounds] and [failed_sessions] report its cost (experiments
    E22/E25 measure the overhead ratio); with [?trace] the emulation also
    streams a {!Crn_radio.Trace.Session} event per contention session.
    Jamming, faults and metrics compose at the abstract-slot level on
    every backend. The protocol state honors the SoA sharding contract
    (per-node RNG streams, atomic informed counter), so on a
    {!Crn_radio.Runner.Soa} backend one trial shards across domains —
    [?pool] (Soa only) reuses an existing domain pool instead of spinning
    one up per run. *)

val run_static :
  ?pool:Crn_exec.Pool.t ->
  ?jammer:Crn_radio.Jammer.t ->
  ?faults:Crn_radio.Faults.t ->
  ?metrics:Crn_radio.Metrics.t ->
  ?trace:Crn_radio.Trace.t ->
  ?backend:Crn_radio.Runner.backend ->
  ?record:bool ->
  ?stop_when_complete:bool ->
  ?budget_factor:float ->
  source:int ->
  assignment:Crn_channel.Assignment.t ->
  k:int ->
  rng:Crn_prng.Rng.t ->
  unit ->
  result
(** Convenience wrapper for the static model: derives [max_slots] from
    {!Complexity.cogcast_slots} using the assignment's dimensions and the
    caller-declared overlap [k]. *)

val label_oracle :
  seed:int -> n:int -> c:int -> node:int -> (slot:int -> int)
(** The "leaked seed" oracle for the Theorem 17 adversary
    ({!Crn_channel.Adversary}): replays the label stream that a COGCAST run
    driven by [Rng.create seed] on an [n]-node, [c]-channel network will
    draw for [node]. The returned closure is stateful and must be queried
    exactly once per slot in increasing slot order — the same pattern in
    which the engine queries the availability. Kept in this module so that
    any change to COGCAST's internal randomness consumption updates the
    oracle with it (guarded by a test). *)
