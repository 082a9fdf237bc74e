(** Deterministic channel-hopping rendezvous schedules — the prior-art
    family the paper positions itself against (§1, §3: Shin et al. [19],
    Lin et al.'s jump-stay [15], Theis et al.'s modular clock, DaSilva &
    Guerreiro's generated orthogonal sequences; best known bounds
    [O(c²)]-ish).

    These are faithful-in-spirit implementations of the three classic
    constructions, adapted to this repository's model (synchronous start,
    per-node channel sets, global labels — deterministic schedules are
    meaningless under adversarial local labels, which is exactly the §6
    separation). Their rendezvous guarantees are *verified empirically* in
    the test suite over exhaustive small parameter grids rather than claimed
    as theorems: the originals differ in model details (asynchrony,
    index-vs-identity channels) that make bound statements non-portable.

    A schedule maps a slot to the *global channel* the node tunes to; it is
    always one of the node's own channels. *)

type schedule = {
  schedule_name : string;
  channel_at : slot:int -> int;  (** Global channel id used in [slot]. *)
}

val channel_of_schedule :
  Crn_channel.Assignment.t -> node:int -> schedule -> slot:int -> int
(** Defensive accessor used by tests: evaluates and checks membership of the
    schedule's choice in the node's set. Raises [Invalid_argument] when a
    schedule leaves the node's channel set. *)

val smallest_prime_geq : int -> int
(** Number theory helper: the smallest prime [>= max 2 n]. *)

val modular_clock :
  Crn_channel.Assignment.t -> node:int -> rate:int -> schedule
(** Theis/Thomas/DaSilva-style modular clock over the node's own channel
    indices: with [p] the smallest prime [>= c], slot [j] visits own-set
    index [(j*rate + node) mod p], folded back into [0, c) when it
    overflows. Rates are in [1, p-1].

    Guarantee (verified in the tests): two nodes with identical channel
    sets and *distinct* rates modulo [p] meet within [O(p²)] slots. Equal
    rates with different offsets never meet — the original paper's known
    weakness, which its authors fix by re-randomizing the rate per round;
    use {!Crn_rendezvous.Random_hop} when no rate coordination exists. *)

val jump_stay : Crn_channel.Assignment.t -> node:int -> schedule
(** Jump-stay-style schedule (after Lin et al. [15]) over the global
    spectrum: with [P] the smallest prime [>= C], time is split into rounds
    of [3P] slots; the first [2P] slots of round [m] jump through
    [(i_m + t*r_m) mod P] and the last [P] slots stay on [r_m], where the
    per-round start [i_m] and step [r_m] are derived from the node id and
    the round index. Channels outside the node's set fold into it
    deterministically. *)

val generated_orthogonal :
  ?phase:int -> Crn_channel.Assignment.t -> node:int -> schedule
(** Generated-orthogonal-sequence schedule (after DaSilva & Guerreiro) over
    the node's own [c] channels: the length-[c(c+1)] sequence
    [σ(0), σ(0..c-1), σ(1), σ(0..c-1), …] with [σ] the identity over the
    sorted set, cycled forever. The GOS guarantee targets asynchronous
    starts: the sequence meets *itself* within one period under any relative
    shift, which [?phase] (default 0) emulates; the tests verify it for all
    shifts exhaustively at small [c]. *)

val pair_rendezvous :
  Crn_channel.Assignment.t -> u:schedule -> v:schedule -> max_slots:int -> int option
(** First 1-based slot at which the two schedules select the same global
    channel. *)

type msg = Payload

type broadcast_result = {
  completed_at : int option;
  slots_run : int;
  informed_count : int;
}

include module type of struct
  include Crn_radio.Machine
end

type machine = (msg, broadcast_result) t

val machine :
  make_schedule:(Crn_channel.Assignment.t -> node:int -> schedule) ->
  source:int ->
  assignment:Crn_channel.Assignment.t ->
  machine
(** Local broadcast driven by a deterministic schedule: every node follows
    its schedule; the source (and, epidemic-style, every informed node)
    broadcasts, the rest listen. The schedules are deterministic, so an
    engine [rng] only feeds the contention winner choice. Schedules and
    labels are computed from [assignment] once, so the machine must run on
    that assignment unchanged; a reassigning availability would turn the
    schedule into random hopping. *)
