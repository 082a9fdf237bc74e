module Rng = Crn_prng.Rng
module Dynamic = Crn_channel.Dynamic
module Action = Crn_radio.Action

type 'a msg = { from : int; value : 'a }

type 'a result = {
  completed_at : int option;
  slots_run : int;
  received_count : int;
  root_value : 'a option;
}

include Crn_radio.Machine

type 'a machine = ('a msg, 'a result) t

let machine (type a) ?(ack = true) ~(monoid : a Crn_core.Aggregate.monoid)
    ~(values : a array) ~source ~availability ~rng () =
  let n = Dynamic.num_nodes availability in
  let c = Dynamic.channels_per_node availability in
  if Array.length values <> n then
    invalid_arg "Aggregation_baseline.machine: values length mismatch";
  if source < 0 || source >= n then
    invalid_arg "Aggregation_baseline.machine: source out of range";
  let received = Array.make n false in
  received.(source) <- true;
  let received_count = ref 1 in
  let acc = ref values.(source) in
  let streams = Rng.Arena.split_n rng n in
  let decide ~node:v ~slot:_ =
    let label = Rng.Arena.int streams v c in
    if v = source then Action.listen ~label
    else if ack && received.(v) then Action.listen ~label (* idealized ACK *)
    else Action.broadcast ~label { from = v; value = values.(v) }
  in
  let feedback ~node:v ~slot:_ fb =
    if v = source then
      match fb with
      | Action.Heard { msg = { from; value }; _ } ->
          if not received.(from) then begin
            received.(from) <- true;
            incr received_count;
            acc := monoid.Crn_core.Aggregate.combine !acc value
          end
      | Action.Won | Action.Lost _ | Action.Silence | Action.Jammed
    | Action.No_winner ->
        ()
  in
  let finished () = !received_count = n in
  let snapshot ~slots_run =
    let complete = !received_count = n in
    {
      completed_at = (if complete then Some slots_run else None);
      slots_run;
      received_count = !received_count;
      root_value = (if complete then Some !acc else None);
    }
  in
  { decide; feedback; finished; snapshot }
