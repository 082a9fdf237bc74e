(** SplitMix64: a fast, statistically strong 64-bit PRNG with a trivially
    splittable state (Steele, Lea & Flood, OOPSLA 2014).

    Used in two roles: seeding {!Xoshiro} states, and deriving independent
    per-node streams from a single experiment seed so that simulations are
    reproducible regardless of the order in which nodes draw randomness.

    The state is one 64-bit word in an 8-byte buffer, stepped unboxed: only
    the [int64] that {!next} returns is allocated. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a generator from an arbitrary 64-bit seed. Distinct
    seeds yield (with overwhelming probability) non-overlapping streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay [t]'s future. *)

val next : t -> int64
(** [next t] advances the state and returns 64 uniformly random bits. *)

val next_int64 : t -> int64
(** Alias for {!next}. *)

val next_into : t -> Bytes.t -> int -> unit
(** [next_into t buf off] advances [t] like {!next} and writes the 64 bits
    at byte [off] of [buf] in native byte order, without allocating.
    Raises [Invalid_argument] unless [0 <= off <= Bytes.length buf - 8]. *)

val split : t -> t
(** [split t] advances [t] and returns a fresh generator whose stream is
    independent of [t]'s subsequent output. *)

val split_words_into : t -> Bytes.t -> int -> unit
(** [split_words_into t buf off] advances [t] like {!split} and writes
    outputs 2 to 5 of the generator {!split} would return to [buf] at
    [off], [off + 8], [off + 16] and [off + 24] in native byte order,
    without allocating; that generator's first output is skipped. Raises
    [Invalid_argument] unless [0 <= off <= Bytes.length buf - 32]. *)

val mix64 : int64 -> int64
(** [mix64 z] is the stateless finalizer used by the generator; exposed for
    hashing-style derivation of seeds from small integers. *)
