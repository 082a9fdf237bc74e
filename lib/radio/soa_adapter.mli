(** Machine → struct-of-arrays bridge: every abstract-slot backend of
    {!Runner.drive} runs a {!Machine.t} on {!Soa.run} through {!machine}
    ({!Emulation.run_machine} is the same loop with a contention-session
    resolver).

    [machine ~n m] adapts [m]'s per-node [decide ~node ~slot] and
    [feedback ~node ~slot] ([n] is the availability's node count) into the
    range callbacks {!Soa.protocol} expects: [decide] polls each non-down
    node in its range and writes the decision into the SoA intent arrays;
    [feedback] classifies each node's slot outcome through the {!Soa}
    accessors and replays it as the {!Action.feedback} the node receives
    ({!Action.No_winner} for a broadcaster on a channel whose resolution
    failed). Payloads of any type are supported: the adapter keeps the
    slot's decisions and hands each listener the winner's own typed
    message. [m.finished] and [m.snapshot] are not consulted; ending the
    run is the caller's [stop]. Feedback reaches the nodes in ascending
    node id on every run, traced or not.

    [parallel] (default [false]) is forwarded to {!Soa.protocol.parallel}
    and must be [true] only when the machine honors the sharding contract
    (per-node RNG streams, range-confined writes, [Atomic] commutative
    aggregates — see {!Soa.protocol}); otherwise the SoA engine calls the
    adapter sequentially over the full node range. *)

val machine : ?parallel:bool -> n:int -> ('msg, _) Machine.t -> Soa.protocol

(** {2 The node-array wrapper}

    The closure-per-node {!Action.node} array survives as a wrapper over
    {!machine} for the benchmark and the engine tests, which compile
    against it: {!Engine.run}, {!Emulation.run} and the {!Reference}
    specifications accept one and run it as {!of_nodes}. *)

val protocol : ?parallel:bool -> 'msg Action.node array -> Soa.protocol
(** [machine ~n:(Array.length nodes) (of_nodes nodes)]. *)

val of_nodes : 'msg Action.node array -> ('msg, unit) Machine.t
(** Node [v]'s callbacks answer for index [v]; never finished. *)

val check_nodes :
  who:string -> availability:Crn_channel.Dynamic.t -> 'msg Action.node array -> unit
(** Raises [Invalid_argument], prefixed by [who], when the array is empty,
    its length is not [availability]'s node count, or an [id] is not its
    index. *)
