(** Closed-form time bounds from the paper, used to size slot budgets and to
    annotate experiment tables with the predicted curve. All formulas use
    natural parameters [n] (nodes), [c] (channels per node), [k] (minimum
    pairwise overlap) and return slot counts as floats. *)

val cogcast : ?factor:float -> n:int -> c:int -> k:int -> unit -> float
(** Theorem 4: [factor · (c/k) · max{1, c/n} · lg n]. The default [factor]
    (12.0) is the empirical constant under which COGCAST completes w.h.p.
    across every topology in the test suite. Raises [Invalid_argument]
    unless [factor] is finite and positive ({!check_factor}). *)

val check_factor : who:string -> float -> unit
(** [check_factor ~who factor] raises [Invalid_argument] prefixed with
    [who] unless [factor] is finite and [> 0] — the one rule for every
    budget factor, checked by {!cogcast} and by each entry point that takes
    one before it runs a slot. *)

val cogcast_slots : ?factor:float -> n:int -> c:int -> k:int -> unit -> int
(** {!cogcast} rounded up to an integer slot budget (at least 1). *)

val cogcomp : ?factor:float -> n:int -> c:int -> k:int -> unit -> float
(** Theorem 10: [cogcast + O(n)] — the additive linear term covers phases
    2–4. *)

val rendezvous_broadcast : n:int -> c:int -> k:int -> float
(** §1's straw-man: randomized rendezvous against a transmitting source,
    [(c²/k) · lg n]. *)

val rendezvous_aggregation : n:int -> c:int -> k:int -> float
(** §1's aggregation straw-man with fair contention, [c²·n / k]. *)

val broadcast_lower_bound : n:int -> c:int -> k:int -> float
(** Theorem 15: [(c/k) · max{1, c/n}] — the local-label lower bound (up to
    constants). *)

val global_label_lower_bound : c:int -> k:int -> float
(** Theorem 16: [(c+1)/(k+1)] expected slots before the source can first
    land on an overlapping channel in the shared-core network. *)

val bipartite_game_lower_bound : ?beta:float -> c:int -> k:int -> unit -> float
(** Lemma 11: [c²/(α·k)] with [α = 2(β/(β−1))²], valid for [k ≤ c/β]. *)

val complete_game_lower_bound : c:int -> float
(** Lemma 14: [c/3]. *)

val hop_together : n:int -> c:int -> k:int -> float
(** §6 discussion: expected [C/k = (k + n(c−k))/k] slots for the
    hop-together sequential scan on the shared-core network. *)

val lg : float -> float
(** Base-2 logarithm, clamped below at 1.0 so budgets never vanish for tiny
    [n]. *)
