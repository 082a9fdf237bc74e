(** Xoshiro256** (Blackman & Vigna, 2018): the workhorse generator.

    256 bits of state, period 2^256 - 1, excellent statistical quality, and
    much faster than OCaml's [Random] for the tight per-slot loops of the
    radio simulator. State is seeded from {!Splitmix} as the authors
    recommend.

    A generator {!t} is one 32-byte state holding its four 64-bit words
    unboxed. A {!type-states} buffer holds many, back to back, drawn by
    index with {!next_bits62_at}. {!next_bits62}, {!next_bits53} and
    {!next_bits62_at} return native ints and allocate nothing; {!next}
    allocates only its boxed [int64] result. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] expands [seed] through SplitMix64 into a full 256-bit
    state. The all-zero state is unreachable by construction. *)

val of_splitmix : Splitmix.t -> t
(** [of_splitmix sm] draws the 256-bit state from [sm], advancing it. *)

type states
(** A buffer of generator states, indexed from 0. *)

val states : int -> states
(** [states n] is a buffer of [n] states, all zero until seeded with
    {!seed_split_at}; an unseeded state draws only zeros. *)

val seed_split_at : states -> int -> Splitmix.t -> unit
(** [seed_split_at s i sm] makes state [i] the state {!of_splitmix} would
    draw from [Splitmix.split sm] after that splitter's first output was
    taken, advancing [sm] as {!Splitmix.split} does; allocates nothing.
    Raises [Invalid_argument] if [i] is not a state index of [s]. *)

val copy : t -> t
(** Independent replayable copy. *)

val next : t -> int64
(** [next t] returns 64 uniformly random bits. *)

val next_bits62 : t -> int
(** [next_bits62 t] advances [t] like {!next} and returns the low 62 bits of
    that output as a non-negative int, without allocating. *)

val next_bits53 : t -> int
(** [next_bits53 t] advances [t] like {!next} and returns the top 53 bits of
    that output, without allocating. *)

val next_bits62_at : states -> int -> int
(** [next_bits62_at s i] is {!next_bits62} on state [i] of [s]: the low 62
    bits of its next output, without allocating; both are the one
    offset-taking step. Raises [Invalid_argument] if [i] is not a state
    index of [s]. *)

val jump : t -> unit
(** [jump t] advances [t] by 2^128 steps; successive jumps from
    copies of one state give 2^128 non-overlapping parallel substreams. *)
