(** The adversary laboratory (§7): dynamic-spectrum adversaries, the
    fault/jammer families the chaos harness sweeps, per-slot reassignment
    instrumentation, and the uniformly-checked trial every chaos cell
    runs.

    This module is the library behind [crn_sim chaos --dynamic] and the
    E24 degradation bench: it composes {!Crn_channel.Dynamic}'s per-slot
    channel reassignment with the reactive jammer and the crash/churn
    fault schedules, so the chaos harness acts as a real adversary
    laboratory rather than a passive fault injector. *)

(** {1 Dynamic-spectrum modes} *)

type dynamic_mode =
  | Static  (** The classic §2 model: one assignment for the whole run. *)
  | Rotating
      (** {!Crn_channel.Dynamic.rotating}: labels cyclically drift every
          slot; channel sets (and hence overlaps) are unchanged. *)
  | Reshuffle
      (** Per-slot re-randomization: a fresh assignment drawn from the
          selected topology each slot via a slot-seeded generator
          ({!Crn_channel.Dynamic.reshuffled_shared_core} for the
          shared-core topology) — adversarial churn that still guarantees
          pairwise overlap [>= k] in every slot. *)
  | Isolate
      (** The Theorem 17 conspiracy ({!Crn_channel.Adversary}): a
          leaked-seed label oracle steers the source's predicted channel
          onto a private channel every slot, so a COGCAST source never
          shares a channel with anyone. *)

val all_modes : dynamic_mode list
val mode_name : dynamic_mode -> string
val mode_of_string : string -> (dynamic_mode, string) result

val validate : mode:dynamic_mode -> spec:Crn_channel.Topology.spec -> (unit, string) result
(** Parameter preconditions per mode ([Isolate] needs [k < c] and
    [n >= 2]), as user-facing errors. Whether a protocol honors a
    non-static mode at all is its declared
    {!Protocol.type-capabilities}[.dynamic]. *)

type armed = {
  availability : Crn_channel.Dynamic.t;
  rng : Crn_prng.Rng.t;
      (** The stream the run must consume. Equal to the input [rng] for
          every mode except [Isolate], where it is [Rng.create leak] for
          the leaked seed the adversary's oracle replays. *)
}

val arm :
  mode:dynamic_mode ->
  topology:Crn_channel.Topology.kind ->
  spec:Crn_channel.Topology.spec ->
  source:int ->
  rng:Crn_prng.Rng.t ->
  armed
(** Build one trial's availability under the given mode, consuming
    whatever randomness the mode needs from [rng]. Deterministic per
    trial stream, so sweeps are identical at any job count. Raises
    [Invalid_argument] with {!validate}'s message on bad parameters. *)

(** {1 Reassignment instrumentation} *)

val instrument :
  trace:Crn_radio.Trace.t -> Crn_channel.Dynamic.t -> Crn_channel.Dynamic.t
(** [instrument ~trace d] is [d] with provenance: the first query of each
    slot [s > 0] compares the slot's rows against slot [s - 1]'s and
    records a {!Crn_radio.Trace.Reassigned} event when any node's row
    changed. Memoization keeps the event stream deterministic (one event
    per reassigned slot, in query order); intended for single-sharded
    instrumented runs, where slots are queried in increasing order. *)

(** {1 Fault/jammer adversaries} *)

type fault_kind = Naps | Churn | Crash | Jam

val all_fault_kinds : fault_kind list
val fault_kind_name : fault_kind -> string
val fault_kind_of_string : string -> (fault_kind, string) result

val adversary_for :
  kind:fault_kind ->
  rate:float ->
  n:int ->
  fault_seed:int64 ->
  Crn_radio.Faults.t option * Crn_radio.Jammer.t option
(** One trial's fault schedule and/or jammer for a chaos cell. [rate] is
    the stationary per-slot down probability ([Naps], [Churn]), the
    crashed-node fraction ([Crash]), or an on/off switch for the reactive
    jammer ([Jam]); [rate <= 0.0] arms nothing. The source (node 0) is
    always spared. Returned reactive jammers are stateful and fresh per
    call — never share one across trials. *)

(** {1 Checked trials} *)

type trial = {
  summary : Protocol.summary;
  violations : Crn_radio.Trace.Check.violation list;
  trace_jsonl : string option;
      (** The full trace as JSONL when there were violations (for
          dump-to-file forensics); [None] on a clean trial. *)
}

val run_trial :
  ?checker:(Crn_radio.Trace.t -> Crn_radio.Trace.Check.violation list) ->
  Protocol.t ->
  (trace:Crn_radio.Trace.t -> Protocol.env) ->
  trial
(** [run_trial proto make_env] runs one fully-instrumented trial: it
    creates a trace, runs [proto] in [make_env ~trace] (the builder must
    thread the trace into the environment), and replays the trace through
    [checker] (default {!Crn_radio.Trace.Check.all}). Every trial is
    checked the same way — there are no "expected to decay" exemptions.
    A violation means the run broke its protocol's trace contract;
    adversaries may slow a protocol down arbitrarily without tripping the
    checkers, but arming a fault family outside a protocol's contract
    (e.g. plain COGCOMP under naps, whose exactly-once accounting is only
    promised fault-free) is {e reported}, never silenced. *)
