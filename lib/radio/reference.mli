(** Executable specifications of {!Engine.run} and {!Emulation.run}.

    List-and-hashtable slot loops written for obviousness: per slot they
    ask every up node to decide, resolve channels in the canonical
    ascending-global-channel-id order, then deliver feedback in ascending
    node id, emitting trace events in the per-slot order documented in
    {!Trace}. The optimized engines must be observationally identical to
    these on every input — same outcome structs and counters, same
    per-node feedback sequences, byte-equal JSONL traces — which
    [test/test_determinism.ml] and [test/test_soa.ml] verify
    differentially over randomized topologies, jammers, faults and
    dynamic availabilities.

    Keep these slow and obvious: they allocate per slot and per channel on
    purpose, and double as the baseline the [MICRO] benchmark measures the
    engines against. Not intended for production use. *)

val run_machine :
  ?jammer:Jammer.t ->
  ?faults:Faults.t ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?stop:(slot:int -> bool) ->
  ?on_slot_end:(slot:int -> unit) ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  machine:('msg, _) Machine.t ->
  max_slots:int ->
  unit ->
  Engine.outcome
(** Specification twin of the {!Engine} backend over a machine: it asks
    [machine]'s [decide]/[feedback] per node ([finished] is not consulted:
    [stop] ends the run), with errors naming [Reference.engine_run]. The
    {!Runner.Reference} backend of {!Runner.drive}. *)

val engine_run :
  ?jammer:Jammer.t ->
  ?faults:Faults.t ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?stop:(slot:int -> bool) ->
  ?on_slot_end:(slot:int -> unit) ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  nodes:'msg Engine.node array ->
  max_slots:int ->
  unit ->
  Engine.outcome
(** Specification twin of {!Engine.run}, the node-array wrapper: identical
    contract, with errors naming [Reference.engine_run]; {!run_machine} on
    [Soa_adapter.of_nodes nodes]. *)

val emulation_run :
  ?strategy:Emulation.strategy ->
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
  Emulation.outcome
(** Specification twin of {!Emulation.run}; identical contract, with
    errors naming [Reference.emulation_run]. *)
