(** Static channel assignments: which global channels each node can use, and
    the node's private (local) labeling of them (§2 of the paper).

    A node addresses channels only through local labels [0 .. c-1]; the
    mapping from a node's local label to the global channel identifier is an
    arbitrary injection, different per node. Protocols that assume the
    *global label* model (§6) may call {!global_of_local} /
    {!local_of_global} to translate, which is exactly the extra power that
    model grants. *)

type t
(** One flat row-major table of [n * c] global channel ids: node [v]'s
    label [l] is entry [v * c + l]. *)

val create : num_channels:int -> local_to_global:int array array -> t
(** [create ~num_channels ~local_to_global] copies a raw table
    [local_to_global.(node).(label) = global channel] into the flat table.
    All rows must have equal length [c >= 1], entries must be distinct
    within a row and in [0, num_channels). Raises [Invalid_argument]
    otherwise. *)

val of_table : num_channels:int -> channels_per_node:int -> int array -> t
(** [of_table ~num_channels ~channels_per_node:c table] takes [table] as the
    flat table itself, without copying: [table.(v * c + l)] is node [v]'s
    label [l]. The caller must not modify [table] afterwards. Its length
    must be a positive multiple of [c >= 1], and each row must satisfy
    {!create}'s conditions; raises [Invalid_argument] otherwise. *)

val num_nodes : t -> int

val num_channels : t -> int
(** Total channels [C] in the spectrum. *)

val channels_per_node : t -> int
(** The per-node set size [c]. *)

val global_of_local : t -> node:int -> label:int -> int
(** Translate a node's local label to the global channel id. Raises
    [Invalid_argument] if [label] is outside [0, c). *)

val local_of_global : t -> node:int -> channel:int -> int option
(** [local_of_global t ~node ~channel] is the node's label for [channel], or
    [None] if the channel is not in the node's set. *)

val channel_set : t -> node:int -> Bitset.t
(** The node's channel set as a fresh bitset over [0 .. num_channels-1]. *)

val overlap : t -> int -> int -> int
(** [overlap t u v] is the number of global channels shared by nodes [u]
    and [v], counted from their rows in O(c²). *)

val min_pairwise_overlap : t -> int
(** The smallest overlap over all node pairs — the realized [k]. Builds
    every node's bitset once, then O(n²) bitset intersections; intended for
    validation and tests. *)

val relabel : Crn_prng.Rng.t -> t -> t
(** [relabel rng t] returns the same channel sets with every node's local
    labeling independently re-shuffled — converts any assignment into an
    adversarially-unaligned local-label instance. *)

val pp : Format.formatter -> t -> unit

val permute_channels : Crn_prng.Rng.t -> t -> t
(** [permute_channels rng t] applies one uniformly random permutation to the
    global channel identifiers (the same permutation for every node), leaving
    local labels pointing at the renamed channels. Overlap structure is
    exactly preserved; only the numeric identities move. Used to de-bias
    constructions that place special channels at low ids. *)
