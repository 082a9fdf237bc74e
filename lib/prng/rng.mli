(** High-level random-number interface used throughout the simulator.

    A {!t} wraps a {!Xoshiro} state and provides the derived distributions
    the protocols and referees need. All simulation code takes an explicit
    [Rng.t]; nothing in the repository touches global randomness, so every
    experiment is reproducible from its seed.

    {!val-int}, {!int_in}, {!val-bool} and {!bernoulli} take their bits
    from the generator as native ints and allocate nothing; {!bits64} and
    {!val-float} allocate only their boxed result. *)

type t
(** Mutable generator. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. *)

val of_int64 : int64 -> t
(** [of_int64 seed] builds a generator from a 64-bit seed. *)

val split : t -> t
(** [split t] derives a generator statistically independent of [t]'s
    subsequent output. Used to give each simulated node its own stream. *)

val split_n : t -> int -> t array
(** [split_n t n] is [n] independent generators derived from [t]. *)

val copy : t -> t
(** Replayable snapshot. *)

val bits64 : t -> int64
(** 64 uniform bits. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound); requires [bound > 0]. Uses
    rejection sampling, so the distribution is exactly uniform. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val bool : t -> bool
(** A fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of Bernoulli([p]) trials up to and
    including the first success (support 1, 2, ...); requires [0 < p <= 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val shuffled_init : t -> int -> (int -> 'a) -> 'a array
(** [shuffled_init t n f] is [Array.init n f] in a uniformly random order. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t m n] draws [m] distinct values uniformly
    from [0..n-1], in random order; requires [m <= n]. Uses a partial
    Fisher–Yates that stores only displaced positions, in a flat
    open-addressing table of at least [2m] slots: O(m) expected time and
    O(m) space, so it is cheap even when [n] is huge (e.g. selecting
    channels out of [C]). *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly random element of the non-empty array [a]. *)

val pick_list : t -> 'a list -> 'a
(** [pick_list t l] is a uniformly random element of the non-empty list [l]. *)
