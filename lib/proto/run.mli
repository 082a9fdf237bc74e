(** One point of a registry run: a protocol on one instance under one set
    of adversaries, for [trials] trials from [seed]. [crn_sim run] runs one
    per point (one per [--sweep] value), and so do the bench's
    registry-backed experiments, so each of their rows is one command
    ({!args}). Trial [i] takes the [i]-th stream split off [seed]
    ({!Crn_exec.Trials}), arms the topology and [--dynamic] mode from it,
    and runs the protocol on what is left. *)

type faults
(** A parsed [--faults] schedule: its text and how it builds from a seed. *)

val parse_faults : string -> (faults, string) result
(** ['+']-separated atoms [none], [crash:NODE:SLOT],
    [restart:NODE:SLOT:DUR], [naps:RATE], [churn:MEAN_UP:MEAN_DOWN] and
    [spare:NODE]. Naps and churn draw from the fault seed; [spare] atoms
    apply last, whatever their order. The error names the bad atom. *)

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
  fault_seed : int;  (** Seeds the fault atoms and the jammer. *)
  load : Protocol.load option;
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
  ?trials:int ->
  ?seed:int ->
  Protocol.t ->
  Crn_channel.Topology.spec ->
  spec
(** A point with [crn_sim run]'s defaults: shared+random, static, engine,
    no faults or jammer, fault seed 1, no load, 9 trials, seed 1. *)

val check_params : Crn_channel.Topology.spec -> (unit, string) result
(** [n >= 1] and [1 <= k <= c]. *)

val check_dynamic :
  mode:Adversary_lab.dynamic_mode ->
  spec:Crn_channel.Topology.spec ->
  Protocol.t list ->
  (unit, string) result
(** The mode's preconditions, and that every protocol honors it. *)

val validate : spec -> (unit, string) result
(** Every check a point passes before its trials: {!check_params}, a
    non-negative jam budget, a load only for an entry that reads one,
    {!check_dynamic}, and Theorem 18's [2t < C]. *)

val armed_availability :
  mode:Adversary_lab.dynamic_mode ->
  topology:Crn_channel.Topology.kind ->
  spec:Crn_channel.Topology.spec ->
  ?trace:Crn_radio.Trace.t ->
  rng:Crn_prng.Rng.t ->
  unit ->
  Crn_channel.Dynamic.t * Crn_prng.Rng.t
(** One trial's availability and the stream left for its run
    ({!Adversary_lab.arm}); a [trace] records a non-static mode's
    reassignments. *)

type result = {
  summaries : Protocol.summary array;  (** Per trial, in trial order. *)
  completion : Crn_stats.Summary.t;
      (** Completion slots; an incomplete trial counts the slots it ran. *)
  completed : int;  (** Trials that completed. *)
  mean_coverage : float;
  latencies : float array option;
      (** The trials' latencies pooled; [None] when no trial reports any. *)
  json : Crn_stats.Json.t;  (** The [crn-run/1] object [--json] writes. *)
}

val point : pool:Crn_exec.Pool.t -> spec -> result
(** The point's trials on [pool]; the result does not depend on its size.
    Raises [Invalid_argument] with {!validate}'s message, or the
    protocol's when a run rejects its environment. *)

val instrumented : spec -> trace:Crn_radio.Trace.t -> unit
(** One extra run on [Rng.create seed], recorded into [trace]. *)

val jammer : spec -> Crn_radio.Jammer.t option
val faults : spec -> Crn_radio.Faults.t option

val args : spec -> (string * string) list
(** The point as [crn_sim run] flags and values, defaults omitted (n, c,
    k, trials and seed always given). *)

val detail_number : string -> Protocol.summary -> float option
(** A trial's numeric [detail] field. *)

val detail_means : Protocol.summary array -> string list
(** ["key=mean"] for each numeric [detail] field, averaged over the
    trials reporting it; ["key=mean (m/T)"] when only [m] of [T] do. *)
