(** The uniform protocol layer: one environment record describing a run, one
    summary record every protocol reports in, and one existential wrapper
    the {!Registry} stores.

    Two ways into the layer:
    {ul
    {- {!of_machine} packs a {!Crn_radio.Machine.t} — a per-node
       [decide]/[feedback]/[finished] state machine — built per run by
       [init], and drives it with {!Crn_radio.Runner.drive} (so any
       backend, jammer, fault schedule, metrics sink or trace applies
       uniformly). COGCAST, the rendezvous baselines and the workloads
       enter this way, through the machine builders their modules
       export.}
    {- {!of_run} packs an opaque [env -> summary] function for protocols
       whose structure does not fit a single engine run — COGCOMP's four
       phases, one machine each — delegating to their direct APIs so that
       a registry-dispatched run is byte-identical to a direct call.}} *)

type arrivals = Poisson | Uniform
(** Inter-arrival law for sustained-traffic runs: [Poisson] spaces rumor
    arrivals geometrically (a Bernoulli coin per slot in expectation),
    [Uniform] spaces them evenly at [1/rate] slots. *)

type load = { rate : float; arrivals : arrivals; rumors : int }
(** An open-loop offered load: a batch of [rumors] rumors (at least one)
    arriving at [rate] rumors per slot network-wide (must be positive),
    injected at uniformly random origin nodes regardless of how the
    protocol keeps up; the run then drains until every rumor finishes or
    the budget runs out. *)

type env = {
  availability : Crn_channel.Dynamic.t;
  rng : Crn_prng.Rng.t;  (** The run's randomness; one stream per run. *)
  source : int;
  k : int;  (** Caller-declared pairwise overlap, used to size budgets. *)
  budget_factor : float option;
      (** Scales the protocol's default slot budget; [None] uses each
          protocol's own default constant. *)
  max_slots : int option;
      (** Explicit slot budget, overriding the protocol's default. Rejected
          by multi-phase protocols whose budget is not one number
          ({!type-capabilities}). *)
  jammer : Crn_radio.Jammer.t option;
  faults : Crn_radio.Faults.t option;
  metrics : Crn_radio.Metrics.t option;
  trace : Crn_radio.Trace.t option;
  backend : Crn_radio.Runner.backend;
      (** The slot loop of every engine run the protocol makes. A
          {!Crn_radio.Runner.Soa} payload carries the run's shard count;
          results do not depend on it. *)
  load : load option;
      (** Offered load for the sustained-traffic workload protocols
          ([gossip], [push_sum]); [None] leaves each workload's default
          rate in force. Entries that do not read it reject it
          ({!type-capabilities}). *)
}

val env :
  ?source:int ->
  ?k:int ->
  ?budget_factor:float ->
  ?max_slots:int ->
  ?jammer:Crn_radio.Jammer.t ->
  ?faults:Crn_radio.Faults.t ->
  ?metrics:Crn_radio.Metrics.t ->
  ?trace:Crn_radio.Trace.t ->
  ?backend:Crn_radio.Runner.backend ->
  ?load:load ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  unit ->
  env
(** Environment constructor; defaults: [source = 0], [k = 1], backend
    {!Crn_radio.Runner.Engine}, everything else off. Raises [Invalid_argument] when a supplied [budget_factor] is
    not finite and positive ({!Crn_core.Complexity.check_factor}), or a
    supplied load has a rate that is not positive or fewer than one
    rumor. *)

type report = {
  completed_at : int option;  (** Slot count at completion, when complete. *)
  coverage : float;  (** As in {!summary}. *)
  detail : Crn_stats.Json.t;  (** As in {!summary}. *)
}
(** The protocol-specific part of a machine's {!summary}; the driver adds
    the name, the slot count, [completed = (completed_at <> None)] and the
    channel accounting of the run that happened. *)

type summary = {
  protocol : string;
  slots_run : int;  (** Abstract slots consumed (all phases). *)
  completed : bool;  (** The protocol's own notion of full success. *)
  completed_at : int option;  (** Slot count at completion, when complete. *)
  coverage : float;
      (** Fraction of nodes the run served (informed / met / value
          delivered, per protocol); [1.0] iff [completed] for most. *)
  raw_rounds : int;
      (** Raw radio rounds, when the run used the emulation backend. *)
  failed_sessions : int;
      (** Emulation contention sessions that exhausted their round cap
          (surfaced to broadcasters as {!Crn_radio.Action.No_winner}); [0]
          on the abstract backends. *)
  counters : Crn_radio.Trace.Counters.t;
      (** Engine channel accounting, summed over every engine run of the
          protocol (all four phases for the COGCOMP entries), so
          [counters.slots_run = slots_run]. *)
  detail : Crn_stats.Json.t;  (** Protocol-specific result fields. *)
}

val summary_json : summary -> Crn_stats.Json.t
(** The uniform JSON view: every {!summary} field, with [counters]
    flattened into an object. *)

type capabilities = {
  dynamic : bool;
      (** Honors an availability that reassigns channels from slot to slot;
          [false] for entries that build their channel tables from the
          slot-0 assignment (the COGCOMPs, [seq_scan]'s global-channel
          labels, [deterministic]'s schedules) or replace the availability
          themselves ([jam_resist:]). The library cannot tell a reassigning
          availability from a static one, so front ends check this before
          arming a dynamic mode. *)
  max_slots : bool;
      (** Honors [env.max_slots]; [false] for multi-phase entries, whose
          budget is not one number. *)
  metrics : bool;  (** Honors [env.metrics]. *)
  load : bool;
      (** Reads [env.load]; [true] only for the sustained-traffic
          workloads. *)
}
(** What an entry supports, declared once where it is packed. Every entry
    runs on every {!Crn_radio.Runner} backend, and shards on the
    {!Crn_radio.Runner.Soa} one, so neither is a capability. *)

type t
(** A packed protocol: what the {!Registry} stores and the CLI/bench
    dispatch on. *)

val of_machine :
  name:string ->
  synopsis:string ->
  capabilities:capabilities ->
  shardable:bool ->
  budget:(env -> int) ->
  init:(env -> ('msg, 'r) Crn_radio.Machine.t) ->
  summarize:(env -> 'r -> report) ->
  t
(** Packs a state machine behind the one machine driver. Per run, [init]
    builds the machine from the environment (splitting whatever randomness
    it needs off [env.rng] before the runner consumes it), and
    {!Crn_radio.Runner.drive} runs it for [env.max_slots] slots, or
    [budget env] when unset (the default budget honors
    [env.budget_factor] and must not consume randomness). [summarize]
    renders the machine's snapshot into its {!report}; the driver adds the
    rest of the {!summary}.

    [shardable] is [true] iff the machine honors the SoA sharding
    contract — per-node RNG streams, writes confined to the node's own
    indices, commutative aggregates behind [Atomic] — so that on a
    {!Crn_radio.Runner.Soa} backend its decide/feedback callbacks may run
    domain-parallel per shard. Machines drawing decide-time randomness
    from a shared stream or mutating shared non-atomic state say [false];
    they still run on the SoA backend with sequential callbacks. Either
    way results are byte-identical to the {!Crn_radio.Runner.Engine}
    backend at any shard count.

    With [env.trace] supplied the driver records
    {!Crn_radio.Trace.preamble} (a {!Crn_radio.Trace.Meta} header and a
    [Phase name] marker) before the run — the preamble COGCAST's direct
    API records too — so every registry trace starts the same way. *)

val of_run :
  name:string ->
  synopsis:string ->
  capabilities:capabilities ->
  (env -> summary) ->
  t
(** Packs an opaque runner for protocols that orchestrate their own engine
    runs. *)

val name : t -> string
val synopsis : t -> string
val capabilities : t -> capabilities

val unsupported : t -> string -> string
(** [unsupported p feature] is the one error wording for a feature [p]
    does not support: ["NAME does not support FEATURE (...)"]. *)

val run : t -> env -> summary
(** Executes the protocol in the environment. Raises [Invalid_argument]
    with {!unsupported}'s wording when the environment sets [max_slots],
    [metrics] or [load] and the entry's {!type-capabilities} say it cannot honor
    them. *)
