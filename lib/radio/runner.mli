(** The one way a protocol reaches a slot engine: a {!t} picks the
    backend and closes over a run's availability, generator, adversaries
    and observability, and {!drive} runs any {!Machine.t} on it. Every
    backend calls the machine's [decide ~node ~slot] and
    [feedback ~node ~slot] directly ({!Soa_adapter.machine},
    {!Emulation.run_machine}, {!Reference.run_machine}): no per-node
    closure array sits between a machine and the slot loop. The runner
    adds no semantics of its own, so a run through it is byte-identical
    (outcomes, counters, RNG consumption, traces) to one calling the
    backend directly. *)

type backend =
  | Engine
      (** The abstract one-winner engine, the default: the same run as
          [Soa { shards = 1; dense_channel_limit = None }]. *)
  | Emulation of { strategy : Emulation.strategy; session_cap : int option }
      (** The footnote-4 raw collision radio, reporting raw-round cost;
          [strategy] picks the contention realization (decay backoff or CSMA/CA). Jamming, faults and
          metrics compose at the abstract-slot level, as on {!Engine}. *)
  | Reference
      (** The list-based executable specification of {!Engine}, for
          differential tests; same feature set. *)
  | Soa of { shards : int; dense_channel_limit : int option }
      (** {!Soa.run} behind the generic {!Soa_adapter}: the machine is
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

type t
(** A backend bound to one run's availability, generator, adversaries and
    observability. One runner serves every message and result type, so a
    multi-phase protocol can drive each of its phases on runners of the
    same backend. *)

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
    exactly as on {!Engine}.

    [pool] and [machine_parallel] apply only to the {!Soa} backend (both
    ignored elsewhere): [pool] reuses an existing domain pool for the
    shards instead of spinning one up per run, and [machine_parallel]
    (default [false]) asserts that the machines honor the SoA
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

val drive :
  ?stop:(slot:int -> bool) ->
  t ->
  ('msg, 'r) Machine.t ->
  max_slots:int ->
  'r * outcome
(** [drive runner m ~max_slots] runs the state machine [m] on [runner]:
    zero slots if [m] is already finished, otherwise until [finished]
    holds after a slot or [max_slots] slots have run, and returns [m]'s
    snapshot at the slot count reached together with the run's outcome.
    This is the one driver for every protocol: the registry's machine
    entries, COGCAST, and each COGCOMP phase.

    [stop] replaces [finished] as the end-of-run test, for phases whose
    end reads the slot index: [stop ~slot] is checked after every slot
    (with the 0-based index of the slot just completed), and [finished]
    is not consulted, not even before the first slot. *)
