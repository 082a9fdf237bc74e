(** Machine → struct-of-arrays bridge: run any ['msg Engine.node] array on
    {!Soa.run}. {!Engine.run} is exactly this bridge at one shard.

    [protocol nodes] adapts the per-node decide/feedback closures of
    [nodes] into the range-callback shape {!Soa.protocol} expects:
    [decide] polls each non-down node in its range and writes the decision
    into the SoA intent arrays; [feedback] classifies each node's slot
    outcome through the {!Soa} accessors and replays it as the
    {!Action.feedback} the node receives. Message payloads of any type are
    supported — the adapter keeps the slot's decisions and hands each
    listener the winner's own typed message, so the int-payload
    restriction of the SoA arrays never surfaces.

    [parallel] (default [false]) is forwarded to {!Soa.protocol.parallel}
    and must be [true] only when the node closures honor the sharding
    contract (per-node RNG streams, range-confined writes, [Atomic]
    commutative aggregates — see {!Soa.protocol}). With the default, the
    SoA engine calls the adapter sequentially over the full node range,
    which is correct for every machine whose feedback is
    order-commutative.

    Feedback order: untraced runs deliver feedback in ascending node id —
    for every {!Engine.run} caller, since that is this adapter on the
    untraced SoA path — and traced runs replay {!Reference.engine_run}'s
    per-channel order. A machine's feedback must therefore be
    order-commutative across nodes for results not to depend on tracing.
    Every protocol in the repository satisfies this; the differential
    suite in [test/test_soa.ml] enforces it entry by entry and for
    COGCOMP's phases. *)

val protocol : ?parallel:bool -> 'msg Action.node array -> Soa.protocol
