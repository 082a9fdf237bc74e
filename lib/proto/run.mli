(** One point of a registry run: a protocol on one instance under one set
    of adversaries, for [trials] trials from [seed]. This is the one place
    a trial is armed, run, traced and checked: [crn_sim run] runs one point
    per [--sweep] value, each [crn_sim chaos] cell is a point, and so are
    the bench's registry-backed experiments, so each of their rows is one
    command ({!args}).

    Trial [i] takes the [i]-th stream split off [seed]
    ({!Crn_exec.Trials.rngs}). A point that arms an adversary ([--faults]
    or a jammer) first draws one word from it and realizes that trial's
    faults and fresh jammer from the word and [fault_seed], so each trial
    faces its own realization. The trial then arms the topology and
    [--dynamic] mode from the stream and runs the protocol on what is
    left. A point with no adversary draws no word. *)

type faults
(** A parsed [--faults] schedule: its text and how it builds from a seed. *)

val parse_faults : string -> (faults, string) result
(** ['+']-separated atoms [none], [crash:NODE:SLOT], [crash:FRACTION],
    [restart:NODE:SLOT:DUR], [naps:RATE], [churn:MEAN_UP:MEAN_DOWN],
    [spare:NODE] and [jam]. Naps and churn draw from the trial's fault
    seed; [crash:FRACTION] crashes that fraction of the nodes (at least
    one), node [i] at slot [2i]; [jam] arms the reactive jammer; [spare]
    atoms apply last, whatever their order. The error names the bad
    atom. *)

val faults_text : faults -> string

val arrivals_laws : (string * Protocol.arrivals) list
(** The [--arrivals] names. *)

val arrivals_name : Protocol.arrivals -> string

type spec = {
  protocol : Protocol.t;
  topology : Crn_channel.Topology.kind;
  params : Crn_channel.Topology.spec;  (** n, c and k. *)
  dynamic : Adversary_lab.dynamic_mode;
  backend : Crn_radio.Runner.backend;
  faults : faults option;
  jam_budget : int;  (** Per-node channels a random jammer takes; 0: none. *)
  fault_seed : int;  (** With each trial's word, seeds its faults and jammer. *)
  load : Protocol.load option;
  check : bool;  (** Trace every trial and replay it through the checkers. *)
  trials : int;
  seed : int;
}
(** One [crn_sim run] point; every field is one of its flags. *)

val spec :
  ?topology:Crn_channel.Topology.kind ->
  ?dynamic:Adversary_lab.dynamic_mode ->
  ?backend:Crn_radio.Runner.backend ->
  ?faults:faults ->
  ?jam_budget:int ->
  ?fault_seed:int ->
  ?load:Protocol.load ->
  ?check:bool ->
  ?trials:int ->
  ?seed:int ->
  Protocol.t ->
  Crn_channel.Topology.spec ->
  spec
(** A point with [crn_sim run]'s defaults: shared+random, static, engine,
    no faults or jammer, fault seed 1, no load, unchecked, 9 trials,
    seed 1. *)

val validate : spec -> (unit, string) result
(** Every check a point passes before its trials: [n >= 1] and
    [1 <= k <= c], a non-negative jam budget, a load only for an entry
    that reads one, the [--dynamic] mode's preconditions and the
    protocol's support for it, at most one jammer ([jam] or a budget),
    Theorem 18's [2t < C], and a [jam_resist:] wrap's preconditions under
    a jammer. *)

type failure = {
  trial : int;
  violations : Crn_radio.Trace.Check.violation list;  (** Never empty. *)
  trace_jsonl : string;  (** The trial's whole trace. *)
}

type result = {
  summaries : Protocol.summary array;  (** Per trial, in trial order. *)
  completion : Crn_stats.Summary.t;
      (** Completion slots; an incomplete trial counts the slots it ran. *)
  completed : int;  (** Trials that completed. *)
  mean_coverage : float;
  latencies : float array option;
      (** The trials' latencies pooled; [None] when no trial reports any. *)
  failures : failure list;
      (** The checked trials with violations, in trial order; [[]] when
          [check] is off. *)
  json : Crn_stats.Json.t;  (** The [crn-run/1] object [--json] writes. *)
}

val point :
  ?checker:(Crn_radio.Trace.t -> Crn_radio.Trace.Check.violation list) ->
  ?trace:Crn_radio.Trace.t ->
  pool:Crn_exec.Pool.t ->
  spec ->
  result
(** The point's trials on [pool]; the result does not depend on its size.
    [trace] records trial 0. With [check], every trial is traced and
    replayed through [checker] (default {!Crn_radio.Trace.Check.all}).
    Tracing changes no summary. Raises [Invalid_argument] with
    {!validate}'s message, or the protocol's when a run rejects its
    environment. *)

val args : spec -> string list
(** The point as [crn_sim run] arguments, defaults omitted (n, c, k,
    trials and seed always given). *)

val detail_number : string -> Protocol.summary -> float option
(** A trial's numeric [detail] field. *)

val detail_means : Protocol.summary array -> string list
(** ["key=mean"] for each numeric [detail] field, averaged over the
    trials reporting it; ["key=mean (m/T)"] when only [m] of [T] do. *)
