(** The straw-man data aggregation from §1: every non-source node runs
    randomized rendezvous, transmitting its value; the source hops and
    listens. With fair contention resolution the paper bounds this at
    [O(c²·n/k)] — the comparator COGCOMP beats in experiment E7.

    Two variants, selected by [?ack] (default [true]):
    {ul
    {- [ack = true] — a node stops transmitting the moment the source has
       received its value (a free, instantaneous ACK the real protocol would
       have to engineer). This keeps contention "fair" as §1 assumes and is
       a *lower* bound on the baseline's true cost, so the COGCOMP gap
       reported against it is conservative.}
    {- [ack = false] — nodes transmit forever; the source then hears a
       uniformly random contender per met slot and must coupon-collect all
       [n-1] distinct values, the behavior an unmodified rendezvous layer
       actually exhibits.}} *)

type 'a msg = { from : int; value : 'a }

type 'a result = {
  completed_at : int option;
      (** Slots until the source held every node's value. *)
  slots_run : int;
  received_count : int;  (** Distinct non-source values received. *)
  root_value : 'a option;
}

include module type of struct
  include Crn_radio.Machine
end

type 'a machine = ('a msg, 'a result) t

val machine :
  ?ack:bool ->
  monoid:'a Crn_core.Aggregate.monoid ->
  values:'a array ->
  source:int ->
  availability:Crn_channel.Dynamic.t ->
  rng:Crn_prng.Rng.t ->
  unit ->
  'a machine
(** Builds the state machine: splits one label stream per node off [rng]
    and seeds the accumulator with the source's own value. *)
