(** The adversary laboratory (§7): the dynamic-spectrum adversaries and
    their per-slot reassignment instrumentation.

    {!Run} arms a trial from here: a mode's per-slot channel reassignment
    ({!Crn_channel.Dynamic}) composes with the fault schedules and jammers
    of the [--faults] vocabulary, so [crn_sim run], the [crn_sim chaos]
    cells and the E24 bench put protocols in front of a real adversary
    rather than a passive fault injector. *)

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
    traced runs, where slots are queried in increasing order. *)
