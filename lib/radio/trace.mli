(** Slot-level execution tracing — the simulator's observability substrate.

    The paper's guarantees are statements about per-slot behaviour: one
    uniformly random winner per contended channel (§2), parent-before-child
    informing in the COGCAST distribution tree (§4), monotone drain of
    cluster values in COGCOMP phase 4 (§5). A {!t} records those facts as a
    stream of {!event}s that {!Engine.run}, {!Emulation.run} and the
    protocol layers append to when (and only when) a trace is supplied —
    with tracing disabled the engines pay a single [match] per would-be
    event and allocate nothing.

    The stream serializes to JSONL (one compact JSON object per line,
    schema [crn-trace/1]) via {!write_jsonl}, and {!Check} replays a
    recorded stream against the paper's invariants, turning any traced run
    into a self-auditing execution. *)

(** {1 Aggregate counters}

    The always-on channel-level accounting the engines have carried since
    the beginning; cheap enough to maintain unconditionally. *)

module Counters : sig
  type t = {
    mutable slots_run : int;
    mutable broadcasts : int;  (** Broadcast attempts (excluding jammed ones). *)
    mutable wins : int;  (** Slots×channels on which a winner was chosen. *)
    mutable contended : int;
        (** Slots×channels with two or more audible broadcasters. *)
    mutable deliveries : int;  (** Listener receptions. *)
    mutable jammed_actions : int;  (** Node actions absorbed by jamming. *)
  }

  val create : unit -> t
  val reset : t -> unit

  val add : into:t -> t -> unit
  (** [add ~into t] adds every field of [t] to [into]. *)

  val contention_rate : t -> float
  (** Fraction of winning channels that had more than one broadcaster. *)

  val pp : Format.formatter -> t -> unit
end

(** {1 Events} *)

type event =
  | Meta of { n : int; channels : int; c : int; source : int }
      (** Run header emitted by the protocol layer: node count, spectrum
          size [C], per-node channel count [c], and the broadcast source. *)
  | Phase of { name : string }
      (** Phase transition marker. Slot numbering restarts at 0 after each
          marker (each protocol phase is its own engine run); {!Check}
          segments the stream accordingly. Names in use: ["cogcast"],
          ["cogcomp-phase2"], ["cogcomp-phase3"], ["cogcomp-phase4"],
          ["cogcomp-done"]. *)
  | Decide of { slot : int; node : int; channel : int; label : int; tx : bool }
      (** An audible node tuned to [channel] (its local [label]) and either
          broadcast ([tx]) or listened. Jammed and down nodes emit {!Jam} /
          {!Down} instead. *)
  | Win of { slot : int; channel : int; winner : int; contenders : int }
      (** Contention resolution: [winner] beat [contenders - 1] others. *)
  | Deliver of { slot : int; channel : int; sender : int; receiver : int }
      (** A listener heard the slot's winning broadcast. *)
  | Silent of { slot : int; node : int; channel : int }
      (** A listener heard nothing (no audible broadcaster / failed
          session). *)
  | Jam of { slot : int; node : int; channel : int }
      (** The node's action was absorbed by a jammer. *)
  | Down of { slot : int; node : int }  (** The node was faulted out. *)
  | Session of {
      slot : int;
      channel : int;
      contenders : int;
      rounds : int;
      ok : bool;
    }
      (** One contention session (decay backoff or CSMA/CA) of the
          raw-radio emulation:
          raw rounds consumed and whether a winner was isolated. *)
  | Informed of { slot : int; node : int; parent : int; label : int }
      (** COGCAST: [node] first heard the message, from [parent], on its
          local channel [label] — a distribution-tree edge. *)
  | Mediator of { node : int }  (** COGCOMP phase 2 elected [node]. *)
  | Sent_value of { slot : int; node : int; r : int }
      (** COGCOMP phase 4: a sender broadcast its accumulated value ([r] is
          its cluster slot). *)
  | Value_delivered of { slot : int; sender : int; receiver : int; r : int }
      (** COGCOMP phase 4: [receiver] accepted [sender]'s value and its
          echo went out — the payload moved one edge up the tree. *)
  | Retired of { slot : int; node : int }
      (** COGCOMP phase 4: the node finished all its duties. *)
  | Injected of { slot : int; rumor : int; node : int }
      (** Workload: the load generator handed rumor [rumor] to [node] at
          the start of [slot] — the node is the rumor's origin. *)
  | Rumor_delivered of { slot : int; rumor : int; node : int; parent : int }
      (** Workload: [node] first learned [rumor] in [slot], from [parent]
          (either by hearing its broadcast or by losing a contention slot to
          it — per §2 a losing broadcaster receives the winner's message). *)
  | Rumor_done of { slot : int; rumor : int }
      (** Workload: by the end of [slot] every node knew [rumor]. *)
  | Adversary of { name : string; budget : int }
      (** Adversary provenance, recorded by the layer that armed the run
          (the chaos harness, {!Crn_proto.Jam_resist}): which adversary —
          jammer or dynamic-reassignment policy — acted on this run, and
          its per-node per-slot budget (0 for reassignment-only
          adversaries). Never emitted by the engines themselves, so
          backend-differential traces stay byte-identical. *)
  | Reassigned of { slot : int; nodes_changed : int }
      (** Dynamic availability (§7): entering [slot], [nodes_changed] nodes
          saw their channel row change relative to [slot - 1]. Emitted by
          the instrumented availability wrapper
          ({!Crn_proto.Adversary_lab.instrument}), not by the engines. *)

(** {2 Per-slot event order}

    Every slot loop — {!Soa.run} and therefore {!Engine.run} and
    {!Emulation.run}, and the {!Reference} specifications — records a
    slot's events in one canonical order:

    + events the protocol records while deciding;
    + {!Down}, {!Jam} and {!Decide}, one per node, in ascending node id;
    + {!Session}, in ascending channel id (emulation only);
    + {!Win}, in ascending channel id;
    + {!Deliver} and {!Silent}, one per audible listener, in ascending
      node id;
    + events the protocol records during feedback, which every node
      receives in ascending node id.

    Traces from a backend and from its specification are therefore
    byte-equal. {!Check} needs a slot's events to be adjacent but not
    ordered within the slot: within a phase segment, a slot's {!Decide},
    {!Session}, {!Win} and {!Deliver} events form one block, blocks come
    in ascending slot order, and each node has at most one {!Decide},
    {!Jam} or {!Down} per slot. {!Check.one_winner} reports a trace that
    breaks either rule. *)

(** {1 The trace buffer} *)

type t

val create : ?capacity:int -> unit -> t
(** An empty trace; [capacity] presizes the buffer (default 256). *)

val record : t -> event -> unit
(** Append one event (amortized O(1)). *)

val preamble :
  t -> availability:Crn_channel.Dynamic.t -> source:int -> name:string -> unit
(** Record the two events every protocol trace opens with: the {!Meta}
    header (node count, spectrum size and channels per node of
    [availability]'s slot-0 assignment, and [source]), then a
    [Phase name] marker. *)

val length : t -> int
val get : t -> int -> event
val iter : (event -> unit) -> t -> unit
val fold : ('a -> event -> 'a) -> 'a -> t -> 'a
val to_list : t -> event list
val of_list : event list -> t
(** Rebuild a trace from events — the replay path used by tests to check
    that {!Check} rejects corrupted histories. *)

val clear : t -> unit

(** {1 JSONL serialization} *)

val json_of_event : event -> Crn_stats.Json.t
(** One compact object per event; the ["ev"] member names the
    constructor. *)

val event_of_json : Crn_stats.Json.t -> event option
(** Inverse of {!json_of_event}; [None] on schema mismatch. *)

val to_jsonl : t -> string
(** All events, one compact JSON object per line, each line terminated by
    a newline. *)

val write_jsonl : path:string -> t -> unit

val of_jsonl : string -> (t, string) result
(** Parse a JSONL dump back into a trace; fails on the first line that is
    not valid JSON or not a known event. *)

(** {1 Invariant checking} *)

(** The checkers read a stored trace in one pass, each as a fold whose
    state is O(n + C) arrays indexed by node and channel id (plus, for
    {!Check.rumor_causality}, one node array per rumor); a stored trace
    costs O(events + n + C) to check.

    Id ranges come from the trace's header, its first {!Meta} event:
    nodes and parents from 0 to n - 1, channels from 0 to C - 1. A trace
    without one is ranged by its own length. An id outside its range is
    reported as a violation naming the id, and the event is not checked
    further; no checker raises on a malformed trace. A header whose n or
    C is negative or too large to allocate is the trace's one
    ["meta-header"] violation: every checker reports it and checks
    nothing else.

    Violations come in a fixed order: checker by checker, in the order
    below; within a checker, those found while reading come first, in
    stream order (a slot's {!Check.one_winner} checks when the slot
    closes),
    then those that need the whole trace, by node id or, for
    {!Rumor_done}, in the order of the done events. A trace and its JSONL
    round trip yield the same list. *)
module Check : sig
  type violation = { invariant : string; detail : string }

  val pp_violation : Format.formatter -> violation -> unit

  val one_winner : t -> violation list
  (** §2 contention semantics, per phase segment: at most one {!Win} per
      (slot, channel); the winner is one of that slot's broadcasters on the
      channel; the recorded contender count matches the broadcaster count;
      every channel with a broadcaster resolves to a win unless a failed
      emulation {!Session} explains the loss; every {!Deliver} names the
      winning sender and a node that was listening there. Also reports a
      slot whose events are not one block in ascending slot order, and a
      node with more than one {!Decide}, {!Jam} or {!Down} in a slot (see
      the per-slot event order above). *)

  val informed_tree : t -> violation list
  (** §4 distribution tree, from {!Informed} events: nodes are informed at
      most once and never the source; every parent is the source or was
      itself informed in a strictly earlier slot (informer precedes
      informee); parent pointers are in range and acyclic. Requires a
      {!Meta} header when any {!Informed} event is present. *)

  val phase4_drain : t -> violation list
  (** §5 phase 4, over the segment after [Phase "cogcomp-phase4"]: each
      delivered value was sent in the same slot by its sender with the same
      cluster slot [r]; each node's value is delivered at most once and
      each node retires at most once (payload conservation); per receiver,
      delivered cluster slots are non-increasing (monotone drain); and when
      the run declared completion ([Phase "cogcomp-done"]), every informed
      node's value was delivered exactly once.

      On a faulty trace (one containing any {!Down} event) the same-step
      send/delivery matching is automatically relaxed to "some strictly
      earlier send of the same cluster" — a node that misses its echo slot
      acks late, which is legitimate, not a conservation violation. The
      strict same-step variant still applies to fault-free traces. *)

  val exactly_once_drain : t -> violation list
  (** No double counting across retries: at most one {!Value_delivered} per
      sender in the phase-4 segment, each backed by a strictly earlier
      {!Sent_value} of the same cluster. Holds for plain and robust COGCOMP,
      fault-free or faulty — a retried send that was already folded must be
      re-acked without a second delivery event. *)

  val rumor_causality : t -> violation list
  (** Multi-rumor causality over the workload events: each rumor is
      {!Injected} at most once; every {!Rumor_delivered} names an injected
      rumor, a node other than its origin that learns it at most once, and
      a parent that already carried the rumor (the origin no earlier than
      the injection slot, any other node in a strictly earlier slot — a
      node can only relay from the slot after it learned). {!Rumor_done}
      fires at most once per rumor, only for injected rumors, and — given a
      {!Meta} header — only once all [n - 1] non-origin nodes hold
      deliveries no later than the done slot. *)

  val all : t -> violation list
  (** The concatenation of every checker, in the order above, from one
      pass over the trace. *)
end
