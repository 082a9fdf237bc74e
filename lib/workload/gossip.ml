module Rng = Crn_prng.Rng
module Dynamic = Crn_channel.Dynamic
module Action = Crn_radio.Action
module Trace = Crn_radio.Trace

type msg = { rumor : int }

type result = {
  slots_run : int;
  total_rumors : int;
  injected : int;
  completed : int;
  deliveries : int;
  retired : int;
  completed_at : int option;
  latencies : float array;
}

include Crn_radio.Machine

type machine = (msg, result) t

let default_hear_limit ~n =
  let rec lg2 acc v = if v <= 1 then acc else lg2 (acc + 1) ((v + 1) / 2) in
  8 + (4 * lg2 0 (max 2 n))

let machine ?hear_limit ?trace ~arrivals ~availability ~rng () =
  let n = Dynamic.num_nodes availability in
  let c = Dynamic.channels_per_node availability in
  let hear_limit = match hear_limit with Some h -> h | None -> default_hear_limit ~n in
  if hear_limit < 1 then invalid_arg "Gossip.machine: hear_limit must be >= 1";
  let total = Array.length arrivals in
  let queues = Arrivals.by_origin ~n arrivals in
  let streams = Rng.Arena.split_n rng n in
  let record ev = match trace with Some tr -> Trace.record tr ev | None -> () in
  (* Whole-network bookkeeping: who knows what, since when, and how loudly
     they have heard it since. *)
  let known_at = Array.make_matrix total n (-1) in
  let heard = Array.make_matrix total n 0 in
  let known_count = Array.make total 0 in
  let injected_at = Array.make total (-1) in
  let done_at = Array.make total (-1) in
  let active : int list array = Array.make n [] in
  let injected = ref 0 in
  let completed = ref 0 in
  let deliveries = ref 0 in
  let retired = ref 0 in
  let learn ~slot ~rumor ~node =
    known_at.(rumor).(node) <- slot;
    active.(node) <- rumor :: active.(node);
    known_count.(rumor) <- known_count.(rumor) + 1;
    if known_count.(rumor) = n then begin
      done_at.(rumor) <- slot;
      incr completed;
      record (Trace.Rumor_done { slot; rumor })
    end
  in
  let inject ~slot ~rumor ~node =
    injected_at.(rumor) <- slot;
    incr injected;
    record (Trace.Injected { slot; rumor; node });
    learn ~slot ~rumor ~node
  in
  let receive ~slot ~rumor ~node ~parent =
    if known_at.(rumor).(node) >= 0 then begin
      (* Already carrying it: bump the exemplar's hear counter and retire
         the rumor locally once the neighbourhood is clearly saturated. *)
      let h = heard.(rumor).(node) + 1 in
      heard.(rumor).(node) <- h;
      if h = hear_limit && List.mem rumor active.(node) then begin
        active.(node) <- List.filter (fun r -> r <> rumor) active.(node);
        incr retired
      end
    end
    else begin
      incr deliveries;
      record (Trace.Rumor_delivered { slot; rumor; node; parent });
      learn ~slot ~rumor ~node
    end
  in
  let decide ~node:v ~slot:t =
    (* Open-loop injection: hand over every arrival that has come due while
       this node was participating. A down origin injects late, at the
       actual slot it returns — the trace records the truth. *)
    let rec drain () =
      match queues.(v) with
      | a :: rest when a.Arrivals.slot <= t ->
          queues.(v) <- rest;
          inject ~slot:t ~rumor:a.Arrivals.rumor ~node:v;
          drain ()
      | _ -> ()
    in
    drain ();
    let label = Rng.Arena.int streams v c in
    match active.(v) with
    | [] -> Action.listen ~label
    | rs ->
        if Rng.Arena.bool streams v then begin
          let len = List.length rs in
          let rumor = List.nth rs (Rng.Arena.int streams v len) in
          Action.broadcast ~label { rumor }
        end
        else Action.listen ~label
  in
  let feedback ~node:v ~slot:t fb =
    match fb with
    | Action.Heard { sender; msg = { rumor } } ->
        receive ~slot:t ~rumor ~node:v ~parent:sender
    | Action.Lost { winner; msg = { rumor } } ->
        (* §2: the losing broadcaster receives the winner's message. *)
        receive ~slot:t ~rumor ~node:v ~parent:winner
    | Action.Won | Action.Silence | Action.Jammed | Action.No_winner -> ()
  in
  let finished () = !injected = total && !completed = total in
  let snapshot ~slots_run =
    let latencies =
      Array.to_list (Array.init total (fun r -> r))
      |> List.filter (fun r -> done_at.(r) >= 0)
      |> List.map (fun r -> float_of_int (done_at.(r) - injected_at.(r) + 1))
      |> Array.of_list
    in
    {
      slots_run;
      total_rumors = total;
      injected = !injected;
      completed = !completed;
      deliveries = !deliveries;
      retired = !retired;
      completed_at = (if !completed = total then Some slots_run else None);
      latencies;
    }
  in
  { decide; feedback; finished; snapshot }
