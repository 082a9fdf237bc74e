(* Executable specifications of the slot engines: list-and-hashtable slot
   loops, written for obviousness rather than speed. {!Engine.run} and
   {!Emulation.run} must be observationally identical to these: same
   outcomes, same counters, same feedback sequences, byte-equal traces. The
   differential tests in [test/test_determinism.ml] and [test/test_soa.ml]
   enforce that on randomized topologies, and the [MICRO] bench uses these
   as the allocation/wall-clock baseline. *)

module Rng = Crn_prng.Rng
module Dynamic = Crn_channel.Dynamic
module Assignment = Crn_channel.Assignment

type 'msg channel_state = {
  mutable broadcasters : (int * 'msg) list;  (* audible, descending node id *)
  mutable listeners : int list;  (* audible listeners *)
  mutable winner : (int * 'msg) option;  (* set by a successful resolution *)
}

(* The canonical resolution order over a populated hashtable: materialize
   and sort. Allocates freely — this is the spec, not the hot path. *)
let sorted_channels channels =
  let pairs = Hashtbl.fold (fun ch st acc -> (ch, st) :: acc) channels [] in
  List.sort (fun (a, _) (b, _) -> compare a b) pairs

(* The slot loop both specifications share. They differ only in [resolve],
   which returns the winner's index among a channel's broadcasters
   (descending node id), or [None] when the channel delivers nothing. Each
   slot follows the per-slot order documented in {!Trace}: every decide,
   then Down/Jam/Decide by node, resolutions and Win by channel,
   Deliver/Silent by node, and feedback by node. *)
let spec_run ~fn ~resolve ?(jammer = Jammer.none) ?(faults = Faults.none)
    ?metrics ?trace ?stop ?on_slot_end ~availability ~(machine : (_, _) Machine.t)
    ~max_slots () =
  let n = Dynamic.num_nodes availability in
  if n = 0 then invalid_arg (fn ^ ": no nodes");
  if max_slots < 0 then invalid_arg (fn ^ ": negative max_slots");
  (match metrics with
  | Some m when Array.length m.Metrics.transmissions <> n ->
      invalid_arg (fn ^ ": metrics sized for a different node count")
  | _ -> ());
  let bump counters i =
    match metrics with
    | Some m -> (counters m).(i) <- (counters m).(i) + 1
    | None -> ()
  in
  let emit ev = match trace with Some tr -> Trace.record tr ev | None -> () in
  let counters = Trace.Counters.create () in
  let channels : (int, 'msg channel_state) Hashtbl.t = Hashtbl.create (4 * n) in
  (* Global channel per node, or -1 when the action was jammed, -2 when the
     node was down. *)
  let tuned = Array.make n (-1) in
  let slot = ref 0 in
  let stopped = ref false in
  while (not !stopped) && !slot < max_slots do
    let s = !slot in
    let assignment = Dynamic.at availability s in
    let c = Assignment.channels_per_node assignment in
    Hashtbl.reset channels;
    let decisions =
      Array.init n (fun i ->
          if Faults.down faults ~slot:s ~node:i then None
          else Some (machine.Machine.decide ~node:i ~slot:s))
    in
    Array.iteri
      (fun i decision ->
        match decision with
        | None ->
            tuned.(i) <- -2;
            emit (Trace.Down { slot = s; node = i })
        | Some ({ Action.label; intent } as decision) ->
            if label < 0 || label >= c then
              invalid_arg
                (Printf.sprintf "%s: node %d chose label %d outside [0,%d)" fn
                   i label c);
            let channel = Assignment.global_of_local assignment ~node:i ~label in
            bump (fun m -> m.Metrics.awake_slots) i;
            if Jammer.jams jammer ~slot:s ~node:i ~channel then begin
              tuned.(i) <- -1;
              counters.Trace.Counters.jammed_actions <-
                counters.Trace.Counters.jammed_actions + 1;
              emit (Trace.Jam { slot = s; node = i; channel });
              bump (fun m -> m.Metrics.jammed) i
            end
            else begin
              tuned.(i) <- channel;
              let tx = Action.is_broadcast decision in
              emit (Trace.Decide { slot = s; node = i; channel; label; tx });
              let state =
                match Hashtbl.find_opt channels channel with
                | Some st -> st
                | None ->
                    let st = { broadcasters = []; listeners = []; winner = None } in
                    Hashtbl.replace channels channel st;
                    st
              in
              match intent with
              | Action.Broadcast msg ->
                  state.broadcasters <- (i, msg) :: state.broadcasters;
                  counters.Trace.Counters.broadcasts <-
                    counters.Trace.Counters.broadcasts + 1;
                  bump (fun m -> m.Metrics.transmissions) i
              | Action.Listen -> state.listeners <- i :: state.listeners
            end)
      decisions;
    let resolved = sorted_channels channels in
    List.iter
      (fun (channel, state) ->
        match state.broadcasters with
        | [] -> ()
        | broadcasters -> (
            let contenders = List.length broadcasters in
            if contenders > 1 then
              counters.Trace.Counters.contended <-
                counters.Trace.Counters.contended + 1;
            match resolve ~slot:s ~channel ~contenders with
            | Some widx ->
                counters.Trace.Counters.wins <- counters.Trace.Counters.wins + 1;
                state.winner <- Some (List.nth broadcasters widx)
            | None -> ()))
      resolved;
    List.iter
      (fun (channel, state) ->
        match state.winner with
        | Some (winner, _) ->
            emit
              (Trace.Win
                 {
                   slot = s;
                   channel;
                   winner;
                   contenders = List.length state.broadcasters;
                 })
        | None -> ())
      resolved;
    let listening i =
      tuned.(i) >= 0
      && match decisions.(i) with
         | Some { Action.intent = Action.Listen; _ } -> true
         | _ -> false
    in
    for i = 0 to n - 1 do
      if listening i then begin
        let channel = tuned.(i) in
        match (Hashtbl.find channels channel).winner with
        | Some (sender, _) ->
            counters.Trace.Counters.deliveries <-
              counters.Trace.Counters.deliveries + 1;
            emit (Trace.Deliver { slot = s; channel; sender; receiver = i });
            bump (fun m -> m.Metrics.receptions) i
        | None -> emit (Trace.Silent { slot = s; node = i; channel })
      end
    done;
    for i = 0 to n - 1 do
      if tuned.(i) = -1 then machine.Machine.feedback ~node:i ~slot:s Action.Jammed
      else if tuned.(i) >= 0 then
        let feedback =
          match ((Hashtbl.find channels tuned.(i)).winner, listening i) with
          | Some (sender, msg), true -> Action.Heard { sender; msg }
          | None, true -> Action.Silence
          | Some (winner, _), false when winner = i -> Action.Won
          | Some (winner, msg), false -> Action.Lost { winner; msg }
          | None, false -> Action.No_winner
        in
        machine.Machine.feedback ~node:i ~slot:s feedback
    done;
    counters.Trace.Counters.slots_run <- counters.Trace.Counters.slots_run + 1;
    if Jammer.observes jammer then begin
      let occupancy =
        List.filter_map
          (fun (channel, state) ->
            match state.broadcasters with
            | [] -> None
            | bs -> Some (channel, List.length bs))
          resolved
      in
      Jammer.observe jammer ~slot:s occupancy
    end;
    (match on_slot_end with Some f -> f ~slot:s | None -> ());
    (match stop with Some f -> if f ~slot:s then stopped := true | None -> ());
    incr slot
  done;
  { Engine.slots_run = !slot; stopped_early = !stopped; counters }

let run_machine ?jammer ?faults ?metrics ?trace ?stop ?on_slot_end
    ~availability ~rng ~machine ~max_slots () =
  let resolve ~slot:_ ~channel:_ ~contenders =
    Some (if contenders = 1 then 0 else Rng.int rng contenders)
  in
  spec_run ~fn:"Reference.engine_run" ~resolve ?jammer ?faults ?metrics ?trace
    ?stop ?on_slot_end ~availability ~machine ~max_slots ()

let engine_run ?jammer ?faults ?metrics ?trace ?stop ?on_slot_end ~availability
    ~rng ~nodes ~max_slots () =
  Soa_adapter.check_nodes ~who:"Reference.engine_run" ~availability nodes;
  run_machine ?jammer ?faults ?metrics ?trace ?stop ?on_slot_end ~availability
    ~rng ~machine:(Soa_adapter.of_nodes nodes) ~max_slots ()

let emulation_run ?(strategy = Emulation.Decay) ?session_cap ?jammer ?faults
    ?metrics ?trace ?stop ~availability ~rng ~nodes ~max_slots () =
  Soa_adapter.check_nodes ~who:"Reference.emulation_run" ~availability nodes;
  let session_cap =
    match session_cap with
    | None -> Backoff.expected_rounds_bound (Array.length nodes)
    | Some cap when cap < 1 ->
        invalid_arg "Reference.emulation_run: session_cap must be >= 1"
    | Some cap -> cap
  in
  let raw_rounds = ref 0 and failed_sessions = ref 0 in
  let slot_rounds = ref 1 in
  let resolve ~slot ~channel ~contenders =
    let session =
      match strategy with
      | Emulation.Decay -> Backoff.session ~rng ~contenders ~cap:session_cap
      | Emulation.Csma -> Csma.session ~rng ~contenders ~cap:session_cap ()
    in
    let rounds =
      match session with
      | Some { Backoff.rounds; _ } -> rounds
      | None ->
          incr failed_sessions;
          session_cap
    in
    slot_rounds := max !slot_rounds rounds;
    (match trace with
    | Some tr ->
        Trace.record tr
          (Trace.Session
             { slot; channel; contenders; rounds; ok = Option.is_some session })
    | None -> ());
    Option.map (fun r -> r.Backoff.winner) session
  in
  let on_slot_end ~slot:_ =
    raw_rounds := !raw_rounds + !slot_rounds;
    slot_rounds := 1
  in
  let o =
    spec_run ~fn:"Reference.emulation_run" ~resolve ?jammer ?faults ?metrics
      ?trace ?stop ~on_slot_end ~availability
      ~machine:(Soa_adapter.of_nodes nodes) ~max_slots ()
  in
  {
    Emulation.slots_run = o.Engine.slots_run;
    raw_rounds = !raw_rounds;
    failed_sessions = !failed_sessions;
    stopped_early = o.Engine.stopped_early;
    counters = o.Engine.counters;
  }
