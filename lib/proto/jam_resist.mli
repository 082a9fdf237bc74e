(** The Theorem 18 protocol transformer: any local-broadcast protocol that
    works on a dynamic spectrum, unmodified, becomes an n-uniform
    jamming-resistant multi-channel broadcast.

    The reduction (§7): [n] nodes all own the same [C] channels; an
    adversary jams at most [t < C/2] channels per node per slot. A node
    that senses jamming treats its unjammed channels as that slot's
    availability set — at least [C - t] channels each, pairwise overlap at
    least [C - 2t > 0] — which is a legal {e dynamic} CRN instance, so the
    protocol runs with its usual guarantee under the adjusted parameters.

    {!wrap} implements exactly that: given a jammer of budget [t] in
    [env.jammer], the wrapped protocol executes on
    {!Crn_radio.Jamming_reduction.sensed_availability} (the per-slot
    unjammed sets, padded to uniform size for under-budget adaptive
    jammers) with the declared overlap [k = C - 2t], and an
    {!Crn_radio.Trace.Adversary} provenance event opens any supplied
    trace. With no jammer — or a budget-0 one — the environment is passed
    through untouched, so a fault-free wrapped run is byte-identical to
    the plain protocol (a property test enforces this).

    The registry resolves names of the form [jam_resist:<protocol>] to
    [wrap (find <protocol>)], so every registered protocol has its
    jamming-resistant variant available from the CLI and bench without
    registration. *)

val prefix : string
(** ["jam_resist:"], the registry name prefix. *)

val wrapped_name : string -> string
(** [wrapped_name p] is [prefix ^ p]. *)

val precondition :
  Protocol.t -> budget:int -> num_channels:int -> (unit, string) result
(** Whether [wrap p] runs under a jammer of [budget] channels per node on a
    spectrum of [num_channels]: always at budget 0, otherwise when
    [2 budget < num_channels] and [p] supports a dynamic spectrum. The
    error is the message {!wrap} raises. *)

val wrap : Protocol.t -> Protocol.t
(** [wrap p] is the jamming-resistant transform of [p], named
    [wrapped_name (Protocol.name p)], with [p]'s capabilities except
    [dynamic], which is [false]: the wrap supplies its own per-slot
    availability. Raises [Invalid_argument] at run time when the
    environment's jammer budget [t > 0] violates [2t < C] (Theorem 18's
    precondition), or when [p] does not support a dynamic spectrum
    ({!Protocol.type-capabilities}): Theorem 18 needs an inner protocol
    that solves broadcast on a dynamic availability, and a protocol that
    reads the slot-0 assignment (the COGCOMPs, [seq_scan],
    [deterministic]) would run on the slot-0 sensed spectrum only. At
    budget 0 every entry passes through unchanged. The transform sets
    the inner run's overlap to [C - 2t]. *)
