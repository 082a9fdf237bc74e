module Rng = Crn_prng.Rng
module Assignment = Crn_channel.Assignment
module Dynamic = Crn_channel.Dynamic
module Action = Crn_radio.Action

let pair ~rng ~assignment ~u ~v ~max_slots =
  let c = Assignment.channels_per_node assignment in
  let rec loop slot =
    if slot > max_slots then None
    else begin
      let cu = Assignment.global_of_local assignment ~node:u ~label:(Rng.int rng c) in
      let cv = Assignment.global_of_local assignment ~node:v ~label:(Rng.int rng c) in
      if cu = cv then Some slot else loop (slot + 1)
    end
  in
  loop 1

let source_meets_all ~rng ~assignment ~source ~max_slots =
  let n = Assignment.num_nodes assignment in
  let c = Assignment.channels_per_node assignment in
  let met = Array.make n false in
  met.(source) <- true;
  let met_count = ref 1 in
  let rec loop slot =
    if !met_count = n then Some (slot - 1)
    else if slot > max_slots then None
    else begin
      let cs = Assignment.global_of_local assignment ~node:source ~label:(Rng.int rng c) in
      for v = 0 to n - 1 do
        if not met.(v) then begin
          let cv = Assignment.global_of_local assignment ~node:v ~label:(Rng.int rng c) in
          if cv = cs then begin
            met.(v) <- true;
            incr met_count
          end
        end
      done;
      loop (slot + 1)
    end
  in
  loop 1

type msg = Beacon

type result = { completed_at : int option; slots_run : int; met_count : int }

include Crn_radio.Machine

type machine = (msg, result) t

let machine ~source ~availability ~rng =
  let n = Dynamic.num_nodes availability in
  let c = Dynamic.channels_per_node availability in
  if source < 0 || source >= n then
    invalid_arg "Random_hop.machine: source out of range";
  let met = Array.make n false in
  met.(source) <- true;
  let met_count = ref 1 in
  let decide ~node:v ~slot:_ =
    if v = source then Action.broadcast ~label:(Rng.int rng c) Beacon
    else if met.(v) then
      (* Already met: park on label 0 *without* drawing, so the shared [rng]
         sees exactly the draws of the pure loop — the source first, then
         each still-unmet node in ascending id (for [source = 0], the
         engine's decide order). Parking cannot create a spurious meeting
         because [met.(v)] is already true, and only the source broadcasts,
         so the engine never draws for contention either. *)
      Action.listen ~label:0
    else Action.listen ~label:(Rng.int rng c)
  in
  let feedback ~node:v ~slot:_ = function
    | Action.Heard { msg = Beacon; _ } ->
        if not met.(v) then begin
          met.(v) <- true;
          incr met_count
        end
    | Action.Won | Action.Lost _ | Action.Silence | Action.Jammed
    | Action.No_winner ->
        ()
  in
  let finished () = !met_count = n in
  let snapshot ~slots_run =
    {
      completed_at = (if !met_count = n then Some slots_run else None);
      slots_run;
      met_count = !met_count;
    }
  in
  { decide; feedback; finished; snapshot }
