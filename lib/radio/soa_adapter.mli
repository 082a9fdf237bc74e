(** Machine → struct-of-arrays bridge: run any ['msg Engine.node] array on
    {!Soa.run}. {!Engine.run} is exactly this bridge at one shard, and
    {!Emulation.run} the same with a contention-session resolver.

    [protocol nodes] adapts the per-node decide/feedback closures of
    [nodes] into the range-callback shape {!Soa.protocol} expects:
    [decide] polls each non-down node in its range and writes the decision
    into the SoA intent arrays; [feedback] classifies each node's slot
    outcome through the {!Soa} accessors and replays it as the
    {!Action.feedback} the node receives ({!Action.No_winner} for a
    broadcaster on a channel whose resolution failed). Message payloads of
    any type are supported — the adapter keeps the slot's decisions and
    hands each listener the winner's own typed message, so the int-payload
    restriction of the SoA arrays never surfaces.

    [parallel] (default [false]) is forwarded to {!Soa.protocol.parallel}
    and must be [true] only when the node closures honor the sharding
    contract (per-node RNG streams, range-confined writes, [Atomic]
    commutative aggregates — see {!Soa.protocol}). With the default, the
    SoA engine calls the adapter sequentially over the full node range.

    Feedback reaches the nodes in ascending node id on every run, traced
    or not; the per-slot event order of traced runs is documented in
    {!Trace}. *)

val protocol : ?parallel:bool -> 'msg Action.node array -> Soa.protocol
