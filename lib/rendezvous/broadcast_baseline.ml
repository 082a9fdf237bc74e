module Rng = Crn_prng.Rng
module Dynamic = Crn_channel.Dynamic
module Action = Crn_radio.Action

type msg = Payload

type result = {
  completed_at : int option;
  slots_run : int;
  informed_count : int;
  informed : bool array;
}

include Crn_radio.Machine

type machine = (msg, result) t

let machine ~source ~availability ~rng =
  let n = Dynamic.num_nodes availability in
  let c = Dynamic.channels_per_node availability in
  if source < 0 || source >= n then
    invalid_arg "Broadcast_baseline.machine: source out of range";
  let informed = Array.make n false in
  informed.(source) <- true;
  (* [Atomic] so the machine is shard-safe on the SoA backend: the
     counter is bumped at most once per node, so the total is
     shard-count independent. *)
  let informed_count = Atomic.make 1 in
  let streams = Rng.Arena.split_n rng n in
  let decide ~node:v ~slot:_ =
    let label = Rng.Arena.int streams v c in
    (* Only the source ever transmits. An informed non-source node behaves
       exactly like an uninformed one — it keeps hopping and listening —
       because the straw man has no epidemic relay to serve; keeping served
       nodes on the common draw-then-listen path also keeps every node's rng
       stream independent of when it was informed. *)
    if v = source then Action.broadcast ~label Payload else Action.listen ~label
  in
  let feedback ~node:v ~slot:_ = function
    | Action.Heard { sender; msg = Payload } ->
        (* Only the source transmits, so any reception is the real message. *)
        if sender = source && not informed.(v) then begin
          informed.(v) <- true;
          ignore (Atomic.fetch_and_add informed_count 1)
        end
    | Action.Won | Action.Lost _ | Action.Silence | Action.Jammed
    | Action.No_winner ->
        ()
  in
  let finished () = Atomic.get informed_count = n in
  let snapshot ~slots_run =
    {
      completed_at = (if Atomic.get informed_count = n then Some slots_run else None);
      slots_run;
      informed_count = Atomic.get informed_count;
      informed;
    }
  in
  { decide; feedback; finished; snapshot }
