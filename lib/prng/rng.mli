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

val shuffle_sub : t -> 'a array -> int -> int -> unit
(** [shuffle_sub t a pos len] shuffles the segment [a.(pos) .. a.(pos+len-1)]
    in place, with the draws {!shuffle} makes on an array of length [len]. *)

val shuffled_init : t -> int -> (int -> 'a) -> 'a array
(** [shuffled_init t n f] is [Array.init n f] in a uniformly random order. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t m n] draws [m] distinct values uniformly
    from [0..n-1], in random order; requires [m <= n]. Uses a partial
    Fisher–Yates that stores only displaced positions, in a flat
    open-addressing table of at least [2m] slots: O(m) expected time and
    O(m) space, so it is cheap even when [n] is huge
    (e.g. selecting channels out of [C]). It is {!sample_into} on a fresh
    {!val-sampler}. *)

type sampler
(** The working arrays of {!sample_into}, reusable across samples. *)

val sampler : int -> sampler
(** [sampler m] serves samples of up to [m] values. *)

val sample_into : t -> sampler -> int -> int -> int array -> int -> unit
(** [sample_into t s m n dst pos] writes the sample
    [sample_without_replacement t m n] would return to
    [dst.(pos) .. dst.(pos+m-1)], with the same draws. It clears only the
    table slots it wrote, so one sampler serves many samples and allocates
    nothing. Requires [0 <= m <= n],
    [m] within [s]'s capacity and the segment within [dst]. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly random element of the non-empty array [a]. *)

val pick_list : t -> 'a list -> 'a
(** [pick_list t l] is a uniformly random element of the non-empty list [l]. *)

(** One stream per node, all in one buffer.

    [Arena.split_n rng n] holds the [n] streams [split_n rng n] would
    return, as their 32-byte generator states back to back, and advances
    [rng] exactly as [split_n] does: node [v]'s draws equal those of
    [(split_n rng n).(v)]. Filling it allocates the one buffer and its
    draws allocate nothing. A node stream cannot be split. *)
module Arena : sig
  type rng := t

  type t
  (** The streams of nodes [0 .. n - 1]. *)

  val split_n : rng -> int -> t
  (** [split_n rng n] is the streams of [Rng.split_n rng n]. *)

  val int : t -> int -> int -> int
  (** [int a node bound] is [Rng.int] on [node]'s stream. Raises
      [Invalid_argument] unless [0 <= node < n] and [bound > 0]. *)

  val bool : t -> int -> bool
  (** [bool a node] is [Rng.bool] on [node]'s stream. Raises
      [Invalid_argument] unless [0 <= node < n]. *)
end
