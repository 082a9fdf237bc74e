(** One shared slot-loop runner for every protocol layer — the single place
    where a protocol phase picks its execution backend.

    Before this module existed, COGCAST, COGCOMP and robust COGCOMP each
    carried a private "engine or emulation" shim ([slot_runner] records with
    an [engine_runner]/[emulation_runner] pair per module). This is that
    shim, once: a {!t} closes over the availability, generator, adversary
    and observability of a run, and its polymorphic {!field-run} executes
    any ['msg Engine.node] array on the selected {!backend}:

    {ul
    {- {!Engine} — the abstract one-winner engine ({!Engine.run}), the
       default: the {!Soa} backend at one shard;}
    {- {!Emulation} — the footnote-4 raw collision radio
       ({!Emulation.run}: the {!Soa} loop with a contention-session
       resolver), reporting raw-round cost;}
    {- {!Reference} — the list-based executable specification
       ({!Reference.engine_run}), for differential tests.}}

    The runner adds no semantics of its own: each backend receives exactly
    the arguments the caller supplied, so a protocol run through a {!t} is
    byte-identical (outcomes, counters, RNG consumption, traces) to one
    calling the backend directly. *)

type backend =
  | Engine
      (** {!Engine.run}; supports jamming, faults and metrics. The same run
          as [Soa { shards = 1; dense_channel_limit = None }] — one slot
          loop serves both names. *)
  | Emulation of { strategy : Emulation.strategy; session_cap : int option }
      (** {!Emulation.run}; [strategy] picks the footnote-4 contention
          realization (decay backoff or CSMA/CA). Jamming, faults and
          metrics compose at the abstract-slot level, as on {!Engine}. *)
  | Reference
      (** {!Reference.engine_run}, the slow specification twin of
          {!Engine}; same feature set. *)
  | Soa of { shards : int; dense_channel_limit : int option }
      (** {!Soa.run} behind the generic {!Soa_adapter}: the node array is
          bridged to range callbacks and one trial shards across [shards]
          domains. Results and traces are byte-identical to {!Engine} at
          any shard count by the SoA determinism contract;
          [dense_channel_limit] ([None] = the {!Soa.run} default) selects
          the occupancy-counting strategy crossover for the [c >> n]
          regime. Traced runs take the same loop at one shard, with the
          per-slot event order documented in {!Trace}. *)

val backend_name : backend -> string
(** The CLI vocabulary for a backend — ["engine"], ["emulation"],
    ["emulation-csma"], ["reference"] or ["soa"] — for error messages and
    reports. *)

type outcome = {
  slots_run : int;
  stopped_early : bool;
  counters : Trace.Counters.t;
  raw_rounds : int;
      (** Raw radio rounds consumed; [0] on the abstract backends. *)
  failed_sessions : int;
      (** Emulation contention sessions that hit the cap; [0] on the
          abstract backends. *)
}

type t = {
  num_nodes : int;  (** The availability's node count. *)
  run :
    'msg.
    ?stop:(slot:int -> bool) ->
    nodes:'msg Engine.node array ->
    max_slots:int ->
    unit ->
    outcome;
}
(** The polymorphic slot loop: one runner serves every message type a
    multi-phase protocol uses, which is why this is a record field rather
    than a plain function. [nodes] must have [num_nodes] entries. *)

val make :
  ?pool:Crn_exec.Pool.t ->
  ?machine_parallel:bool ->
  ?jammer:Jammer.t ->
  ?faults:Faults.t ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?backend:backend ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  unit ->
  t
(** [make ~availability ~rng ()] is a runner on the default {!Engine}
    backend. Every backend accepts the full adversary/observability set —
    on {!Emulation} the jammer and fault schedule address abstract slots,
    exactly as on {!Engine} (see {!Emulation.run}).

    [pool] and [machine_parallel] apply only to the {!Soa} backend (both
    ignored elsewhere): [pool] reuses an existing domain pool for the
    shards instead of spinning one up per run, and [machine_parallel]
    (default [false]) asserts that the node closures honor the SoA
    sharding contract — per-node RNG streams, range-confined writes,
    [Atomic] commutative aggregates — letting decide/feedback run
    sharded. Leave it [false] for machines with shared mutable state or a
    shared decide-time RNG; the SoA engine then calls them sequentially
    and still shards the channel phases (see {!Soa.protocol}). *)

val accumulating : outcome ref -> t -> t
(** [accumulating total runner] runs like [runner] and adds the outcome of
    every run into [total] — slots, counters, raw rounds and failed
    sessions; [stopped_early] holds if any run stopped early. This is how
    a multi-phase protocol reports one summary over all of its engine
    runs. *)


val drive : t -> ('msg, 'r) Machine.t -> max_slots:int -> 'r * outcome
(** [drive runner m ~max_slots] runs the state machine [m] on [runner]:
    zero slots if [m] is already finished, otherwise until [finished]
    holds or [max_slots] slots have run, and returns [m]'s snapshot at the
    slot count reached together with the run's outcome. This is the one
    driver for single-run protocols: the registry runs its machine
    entries through it. *)
