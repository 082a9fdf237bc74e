(** Struct-of-arrays slot engine: the one implementation of the §2 slot,
    at million-node scale, with intra-trial sharding across OCaml domains.

    Synchronous slots, one winner per contended channel (§2 of the paper),
    resolved in the canonical order of {!Reference.engine_run} — with node
    state in dense arrays indexed by node id, the per-node phases of a slot
    sharded across a {!Crn_exec.Pool}, and channel resolution walking an
    O(active) worklist instead of the spectrum. {!Engine.run} is this loop
    at one shard, reached through {!Soa_adapter}; {!Emulation.run} is the
    same with a contention-session [resolve] in place of the uniform draw.

    {2 Determinism contract}

    Runs are byte-identical to {!Reference.engine_run} (same seed, same
    protocol behaviour) and invariant under the shard count, because:

    - The shared [rng] is consumed {e only} by the resolver — one call per
      channel with an audible broadcaster, in ascending global channel id
      (the default resolver draws only when two or more contend) — executed
      sequentially between the parallel phases (plus, for a
      [parallel = false] protocol, its own sequential decide-time draws in
      ascending node order, as under {!Reference.engine_run}). No per-shard
      RNG streams exist, so the draw sequence cannot depend on [shards].
    - Every parallel phase writes only shard-private state: contiguous
      node-id ranges of the node arrays, and private per-shard rows of the
      channel-count matrix. Merges into shared channel state happen
      sequentially between phases (a {!Crn_exec.Pool.parallel_for} return
      is the barrier).
    - Protocol decisions either draw randomness from per-node streams
      (as [Crn_core.Cogcast] does), making decide order immaterial, or
      declare [parallel = false] and run their callbacks sequentially over
      the full node range (see {!protocol}).

    {2 Slot pipeline and array ownership}

    Per slot, with [S] shards over [n] nodes (shard [s] owns node range
    [[s*n/S, (s+1)*n/S)]):

    + {e parallel} — fault marking, [protocol.decide], label→channel
      translation, jamming; shard [s] writes [intent]/[label]/[msg]/
      [tuned] only at indices in its range, plus its private row of the
      broadcaster-count matrix (dense mode).
    + {e sequential} — merge occupancy into [count], build [active]
      (ascending channel ids).
    + {e sequential} — [resolve] per active channel, stored as a selection
      countdown (or a failure mark).
    + {e parallel (dense) / sequential (sparse)} — winner materialization
      and listener delivery accounting; in dense mode each active channel
      is pre-assigned to the unique shard whose range contains its winner,
      so shards never contend on [winner]/[need].
    + {e parallel} — [protocol.feedback] over the node ranges, so every
      node gets its feedback in ascending node id.
    + {e sequential} — counter merges, jammer observation,
      [on_slot_end], stop check.

    Spectra up to [dense_channel_limit] channels use per-shard dense count
    rows (parallel counting and selection); larger spectra — the [c >> n]
    regime of §6, where [shared_core] makes [C] grow with [n] — fall back
    to sequential O(n) occupancy scans. Both count identical totals and
    draw in identical order, so the strategy choice never changes results.

    Passing [?trace] runs the same loop at one shard with two sequential
    event scans added, emitting each slot's events in the order documented
    in {!Trace}; traced runs are byte-equal to the specification's
    traces. *)

(** {1 Node state} *)

type t = {
  n : int;  (** Node count; all node arrays have this length. *)
  intent : Bytes.t;
      (** Per-node intent code for the current slot: {!idle}, {!listen},
          {!broadcast}, {!jammed_listen}, {!jammed_broadcast} or {!down}.
          Before [decide] runs, the engine stamps each node {!idle} or
          {!down}; [decide] upgrades its own nodes to {!listen} /
          {!broadcast}; the jamming scan downgrades absorbed actions. *)
  label : int array;  (** Per-node local channel label chosen this slot. *)
  msg : int array;  (** Per-node broadcast payload (broadcasters only). *)
  tuned : int array;
      (** Per-node global channel id, valid for audible (and jammed)
          nodes once phase 1 completes. *)
  mutable num_channels : int;
      (** Capacity of the channel-indexed arrays below. *)
  mutable count : int array;
      (** Per-channel audible broadcaster count for the current slot.
          Valid from the occupancy merge onwards; only previously-active
          channels are reset between slots. *)
  mutable winner : int array;
      (** Per-channel winning node id — meaningful only on channels with
          [count > 0] this slot, and [-1] there when the channel's
          resolution failed. *)
  mutable winner_msg : int array;  (** The winner's payload, same caveat. *)
  mutable need : int array;  (** Internal: winner-selection countdown. *)
  mutable owner : int array;
      (** Internal: selecting shard (dense mode), or [-1] on a channel whose
          resolution failed. *)
  active : int array;
      (** Channels with at least one audible broadcaster this slot,
          [active.(0 .. active_len - 1)], in ascending channel id. *)
  mutable active_len : int;
}

(** {2 Intent codes} *)

val idle : char
(** No action this slot — the node is skipped like a down node. (The
    machine protocols always act; this exists so [decide] ranges may skip
    nodes without sentinel labels.) *)

val listen : char

val broadcast : char

val jammed_listen : char
(** Was listening; the action was absorbed by the jammer. *)

val jammed_broadcast : char
(** Was broadcasting; the action was absorbed by the jammer. *)

val down : char
(** Faulted out this slot ({!Faults}); [decide] must not touch the node —
    in particular it must not consume the node's RNG stream, mirroring
    the specification, where down nodes are never asked to decide. *)

(** {1 Protocols}

    A protocol is a pair of range callbacks in place of a {!Machine.t}'s
    per-node [decide]/[feedback] ({!Soa_adapter.machine} bridges one). [decide t ~slot ~lo ~hi] must set an intent (via
    {!set_listen} / {!set_broadcast}) for every node in [[lo, hi)] that is
    not {!down}. [feedback] reads the slot's outcome through the accessors
    below (or the arrays directly) for every node in [[lo, hi)] and
    updates protocol state.

    [parallel] declares whether the callbacks honor the {e sharding
    contract}: a callback invoked with range [[lo, hi)] may touch
    node-indexed state only inside that range — ranges partition [0, n)
    across domains, and out-of-range writes are data races — randomness is
    drawn only from per-node streams, and shared aggregates are [Atomic]
    and commutative (e.g. a fetch-and-add informed counter), so their
    final value is shard-count independent. The engine then calls a
    [parallel] callback with contiguous ranges, one per shard.

    A protocol with [parallel = false] — one that draws from a stream
    shared across nodes in [decide], or mutates plain shared counters —
    instead receives exactly one [decide] and one [feedback] call per
    slot, covering [[0, n)], executed sequentially between the engine's
    parallel phases (translation, occupancy, winner materialization still
    shard). Decide-time draws from the shared [rng] then interleave with
    the winner draws exactly as under {!Reference.engine_run}, so results
    stay byte-identical to the specification at any shard count.

    Either way, every run — traced or not, at any shard count — delivers
    feedback in ascending node id. *)

type protocol = {
  parallel : bool;
  decide : t -> slot:int -> lo:int -> hi:int -> unit;
  feedback : t -> slot:int -> lo:int -> hi:int -> unit;
}

(** {2 Decide-phase writers} *)

val set_listen : t -> int -> label:int -> unit
(** [set_listen t v ~label] : node [v] listens on its local [label]. *)

val set_broadcast : t -> int -> label:int -> msg:int -> unit
(** [set_broadcast t v ~label ~msg] : node [v] broadcasts payload [msg]
    on its local [label]. *)

(** {2 Feedback-phase readers}

    All valid once winner materialization has completed — i.e. inside
    [feedback] callbacks. *)

val is_down : t -> int -> bool

val was_jammed : t -> int -> bool

val heard : t -> int -> bool
(** The node listened and some broadcaster won its channel; {!sender} and
    {!message} are then valid. *)

val silent : t -> int -> bool
(** The node listened and nothing was delivered on its channel: no one was
    audible, or the channel's resolution failed. *)

val sender : t -> int -> int
(** Winner of the channel the node is tuned to. *)

val message : t -> int -> int
(** That winner's payload. *)

val won : t -> int -> bool
(** The node broadcast and won its channel. *)

val lost : t -> int -> bool
(** The node broadcast and another broadcaster won; {!sender} /
    {!message} describe the winner it lost to. *)

val no_winner : t -> int -> bool
(** The node broadcast and its channel's resolution failed, so nothing was
    delivered there this slot (a capped-out contention session under
    {!Emulation.run}; never with the default resolver). *)

val num_nodes : t -> int

(** {1 Running} *)

type outcome = {
  slots_run : int;
      (** Number of slots executed (equals [max_slots] unless [stop] fired). *)
  stopped_early : bool;
  counters : Trace.Counters.t;
}
(** Re-exported as {!Engine.outcome}. *)

val run :
  ?pool:Crn_exec.Pool.t ->
  ?shards:int ->
  ?jammer:Jammer.t ->
  ?faults:Faults.t ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?stop:(slot:int -> bool) ->
  ?on_slot_end:(slot:int -> unit) ->
  ?dense_channel_limit:int ->
  ?resolve:(slot:int -> channel:int -> contenders:int -> int) ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  protocol:protocol ->
  max_slots:int ->
  unit ->
  outcome
(** Run up to [max_slots] slots (or until [stop ~slot] holds, checked
    after each slot).

    [shards] (default 1) splits each slot's per-node phases into that many
    contiguous node ranges. With [shards > 1] the ranges run on [pool]
    (two {!Crn_exec.Pool.parallel_for} barriers per slot); when no pool is
    supplied a throwaway pool of [shards] domains wraps the run. A pool
    smaller than [shards] — including the sequential [jobs = 1] pool that
    {!Crn_exec.Trials} hands out when trial-level parallelism already saturates the
    machine — just runs shards consecutively; results are identical at any
    combination, per the determinism contract above.

    [dense_channel_limit] (default 4096) caps the spectrum size for the
    dense counting strategy; tests pass [0] to force the sparse path.

    [resolve ~slot ~channel ~contenders] picks the winner on a channel
    with [contenders >= 1] audible broadcasters: it returns an index in
    [[0, contenders)] into those broadcasters in descending node id, or a
    negative number when the channel delivers nothing this slot — its
    broadcasters then see {!no_winner} and its listeners {!silent}. It is
    called once per such channel, in ascending channel id, sequentially.
    The default is the §2 uniform draw from [rng] (no draw for a lone
    broadcaster). [counters.wins] counts successful resolutions,
    [counters.contended] channels with two or more contenders.

    [trace] runs the loop at one shard ([shards] is then ignored; results
    still match, by the same contract) and records each slot's events in
    the order documented in {!Trace}; the trace is byte-equal to
    {!Reference.engine_run}'s for a protocol behaving identically.

    Raises [Invalid_argument] on an empty availability, negative
    [max_slots], [shards < 1], wrongly-sized [metrics], a [decide] that
    picks a label outside [[0, c)], or a [resolve] result
    [>= contenders]. *)
