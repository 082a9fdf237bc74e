(** Pure helpers of the repo benchmark: order statistics, the tail
    percentile rule, metric-name validation, failure accounting and span
    self-time arithmetic. Nothing here touches the simulator, so all of it
    is unit-tested on its own. *)

val median : float array -> float
(** Median of a non-empty sample (mean of the two middle values for an even
    count). Raises [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the nearest-rank [p]-th percentile, [0 < p <= 100]:
    the smallest sample with at least [p]% of the samples at or below it. *)

val beyond : count:int -> float -> int
(** [beyond ~count p] is how many of [count] samples lie strictly beyond
    the nearest-rank [p]-th percentile: [count - ceil (p * count / 100)]. *)

val tail_percentile : float array -> (float * float) option
(** The highest percentile of the ladder 99.9, 99, 90, 50 that has at
    least ten samples beyond it, with its value, or [None] when even the
    median has fewer than ten samples beyond it (fewer than 20 samples). *)

val valid_name : string -> bool
(** A metric or workload name: 1 to 64 letters, digits, [_], [.] and [-],
    starting with a letter or a digit. *)

val valid_unit : string -> bool
(** A unit: 1 to 16 letters, digits, [_], [/], [%], [.] and [-]. *)

(** Output-check accounting: every check attempted is counted, every check
    that fails is counted against it. *)
type tally = { mutable attempted : int; mutable failed : int }

val tally : unit -> tally
val check : tally -> bool -> unit
val failed_frac : tally -> float
(** [failed / attempted]; [0.] when nothing was attempted. *)

(** A child span of some parent interval: [start], [stop] bound it, and
    [busy] (at most [stop -. start]) is the time it actually ran — less
    than its hull when it stands for several back-to-back calls coalesced
    into one record. *)
type child = { start : float; stop : float; busy : float }

val covered : start:float -> stop:float -> child list -> float
(** The part of the parent interval [[start, stop]] that the children
    cover. Children whose hulls overlap (calls running on parallel
    domains) count as the union of their hulls; a child overlapping no
    other counts its [busy] time. Everything is clipped to the parent. *)

val self_time : start:float -> stop:float -> child list -> float
(** [stop -. start -. covered ~start ~stop children]. *)
