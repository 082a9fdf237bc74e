(** Xoshiro256** (Blackman & Vigna, 2018): the workhorse generator.

    256 bits of state, period 2^256 - 1, excellent statistical quality, and
    much faster than OCaml's [Random] for the tight per-slot loops of the
    radio simulator. State is seeded from {!Splitmix} as the authors
    recommend.

    The state is one 32-byte buffer holding the four 64-bit words unboxed.
    {!next_bits62} and {!next_bits53} return native ints and allocate
    nothing; {!next} allocates only its boxed [int64] result. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] expands [seed] through SplitMix64 into a full 256-bit
    state. The all-zero state is unreachable by construction. *)

val of_splitmix : Splitmix.t -> t
(** [of_splitmix sm] draws the 256-bit state from [sm], advancing it. *)

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

val jump : t -> unit
(** [jump t] advances [t] by 2^128 steps; successive jumps from copies of one
    state give 2^128 non-overlapping parallel substreams. *)
