(** Transient node failures.

    §1 argues that COGCAST's obliviousness — every node does the same thing
    in every slot — makes it robust to "changes to the network conditions,
    temporary faults, and so on". This module supplies fault schedules the
    engine applies: a node that is *down* in a slot neither transmits nor
    receives (it simply misses the slot); its protocol state is untouched.

    Fault schedules must be deterministic functions of [(slot, node)] so
    runs replay; randomized schedules derive decisions from a seed. *)

type t

val name : t -> string

val to_string : t -> string
(** Human-readable rendering of the schedule, used for provenance in trace
    headers and campaign JSON. Compositions keep both operands:
    [to_string (union a b)] contains [to_string a] and [to_string b]. *)

val down : t -> slot:int -> node:int -> bool
(** Whether [node] misses [slot]. *)

val none : t

val of_fun : name:string -> (slot:int -> node:int -> bool) -> t

val crash : node:int -> from_slot:int -> t
(** [node] permanently fails at [from_slot]. *)

val crash_restart : node:int -> from_slot:int -> down_for:int -> t
(** [node] crashes at [from_slot] and comes back [down_for] slots later.
    The schedule only controls absence; "restart with protocol state reset"
    is the rejoining protocol's business — [Crn_core.Cogcomp] with recovery
    armed detects the slot gap on wake-up and clears its transient per-step
    state. *)

val bernoulli_churn : seed:int64 -> mean_up:float -> mean_down:float -> t
(** Seeded per-node up/down Markov chain: an up node goes down with
    probability [1/mean_up] per slot, a down node recovers with probability
    [1/mean_down] per slot, so the stationary fraction of down slots is
    [mean_down /. (mean_up +. mean_down)]. All nodes start up. Coins are
    hashed from [(seed, node, slot)], so schedules replay; the sequential
    chain state is memoized internally (thread-safe). *)

val random_naps : seed:int64 -> rate:float -> t
(** Every node independently misses each slot with probability [rate]
    (decided per (slot, node) from the seed) — memoryless transient
    faults. *)

val periodic_nap : period:int -> nap:int -> offset_stride:int -> t
(** Node [v] sleeps during slots [s] with
    [(s + v*offset_stride) mod period < nap] — staggered duty cycling. *)

val spare : t -> node:int -> t
(** [spare t ~node] is [t] with [node] never failing — used to keep the
    source alive, without which broadcast trivially cannot start. *)

val union : t -> t -> t
(** Down if either schedule says down. *)

val staggered_activation : activation:int array -> t
(** [staggered_activation ~activation] keeps node [v] down until slot
    [activation.(v)] — relaxing the paper's all-activated-simultaneously
    assumption (§2). Once awake a node never fails. *)
