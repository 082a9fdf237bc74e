(** Streaming push-sum aggregation (Kempe–Dobra–Gehrke) on the one-winner
    radio, with exact mass accounting.

    Every node holds a pair [(s, w)], initialized to [(value, 1)]; the
    network average is estimated by [s/w]. Slots alternate in pairs:
    {ul
    {- {e beacon slot} (even): each node flips a coin between broadcasting
       a [Beacon] on a random channel and listening on one. Whoever hears
       the slot's winning beacon — listeners, and losing beaconers, who per
       §2 receive the winner's message — remembers the beaconer and the
       channel.}
    {- {e transfer slot} (odd): each node that heard a beacon answers on
       the same channel with [Transfer {target; ds = s/2; dw = w/2}];
       the beaconer listens where it beaconed. The {e winning} responder
       debits its halves exactly when the engine reports [Won]; the target
       folds them in when it hears the transfer. Losing responders keep
       their mass untouched.}}

    Because the debit ([Won] at the sender) and the credit ([Heard] at the
    target) are two views of the same engine delivery, the transfer is
    atomic in every slot where the target is up and unjammed. When it is
    not, the debited halves would leak — so the machine keeps an in-flight
    ledger: each [Won] debit enters it, each matching fold clears it, and
    whatever remains at the end of the slot is swept into [lost_mass]
    rather than vanishing. The conservation invariant — the property test's
    subject — is that folded mass + in-flight mass + lost mass equals the
    injected total {e exactly} (to float tolerance) after every slot, crash
    faults included.

    Sustained load: each {!Arrivals} rumor injects [+1.0] of mass at its
    origin (recorded as {!Crn_radio.Trace.Injected}), shifting the true
    mean mid-run. The machine finishes when all arrivals are injected and
    every node's estimate is within [tolerance] (relative) of the true
    mean. *)

type msg =
  | Beacon
  | Transfer of { target : int; ds : float; dw : float }

type result = {
  slots_run : int;
  total_arrivals : int;
  injected : int;
  transfers : int;  (** Committed (won) transfers. *)
  lost_mass : float;  (** Mass swept from the in-flight ledger. *)
  lost_weight : float;
  max_drift : float;
      (** Max over slot ends of [|Σs + lost_mass - expected|]. *)
  estimate_error : float;
      (** Max relative deviation of any node's [s/w] from the true mean at
          the end of the run. *)
  converged : int;  (** Nodes within [tolerance] at the end. *)
  completed_at : int option;
  latencies : float array;
      (** Per converged node: slots from the last injection to the slot
          its estimate (re-)entered the tolerance band, >= 1. *)
}

include module type of struct
  include Crn_radio.Machine
end

type machine = (msg, result) t

val machine :
  ?tolerance:float ->
  ?values:float array ->
  ?trace:Crn_radio.Trace.t ->
  arrivals:Arrivals.arrival array ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  unit ->
  machine
(** Builds the whole-network machine. [tolerance] defaults to [0.02];
    [values] (the initial [s] vector) defaults to the node ids, matching
    the registry's aggregation payload convention. Raises
    [Invalid_argument] if [values] has the wrong length or [tolerance] is
    not positive. *)
