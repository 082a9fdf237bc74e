(** Decay backoff: realizing the one-winner contention abstraction on the
    raw collision radio (§2 footnote 4).

    The paper's model assumes that when multiple nodes broadcast on a
    channel, exactly one succeeds, everybody learns the outcome, and losers
    receive the winner's message. Footnote 4 notes this is implementable by
    "broadcasting with exponentially decreasing probabilities": within a
    contention session each contender transmits with probability [2^{-j}]
    in sub-round [j] of a repeating epoch of length [⌈lg n⌉ + 1]; the first
    sub-round in which exactly one node transmits delivers its message, all
    other contenders hear it and abort, and the transmitter infers success
    from being the only non-aborter. The expected session length is
    [O(log² n)] sub-rounds, which experiment E13 measures.

    Sessions here run a single contention group on one channel of the
    {!Raw_radio} engine, which is exactly the situation the abstraction
    collapses into one slot. *)

type result = {
  winner : int;  (** Index (into the contender array) of the winner. *)
  rounds : int;  (** Raw radio rounds consumed by the session. *)
}

val session :
  rng:Crn_prng.Rng.t -> contenders:int -> cap:int -> result option
(** [session ~rng ~contenders ~cap] simulates one decay session among
    [contenders >= 1] nodes (population bound used for the epoch length is
    [contenders] itself). Returns [None] if no sub-round isolated a unique
    transmitter within [cap] rounds — by the analysis this happens with
    probability [n^{-Θ(1)}] once [cap = Ω(log² n)]. *)

val session_on_raw_radio :
  rng:Crn_prng.Rng.t -> contenders:int -> cap:int -> result option
(** Same protocol, but executed end-to-end through {!Raw_radio.run} with one
    node per contender — the integration proof that the protocol and the raw
    engine agree. Coin draws are consumed from [rng] in the same
    round-major, node-minor order as {!session}, so for any seed both
    implementations agree on the winner and on the rounds count (a property
    the test suite checks differentially). Slower; used by tests and E13
    spot checks. *)

val expected_rounds_bound : int -> int
(** [expected_rounds_bound n] is the [O(log² n)] budget (with explicit
    constant 4·(⌈lg n⌉+1)²) within which a session succeeds w.h.p.; used to
    size [cap] in benchmarks. *)

val retry_delay : attempt:int -> cap:int -> int
(** [retry_delay ~attempt ~cap] is the exponential-backoff gap
    [min cap 2^attempt] (saturating, overflow-safe) — the number of steps a
    retrying sender waits after its [attempt]-th failed transmission.
    [Crn_core.Cogcomp] with recovery armed uses it to pace phase-4
    re-sends so a crashed receiver does not keep its whole cluster busy
    every step. *)
