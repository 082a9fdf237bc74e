type strategy = Decay | Csma

type outcome = {
  slots_run : int;
  raw_rounds : int;
  failed_sessions : int;
  stopped_early : bool;
  counters : Trace.Counters.t;
}

(* The emulation is the struct-of-arrays loop at one shard with one
   change: each active channel's winner comes from a contention session
   instead of a uniform draw. The resolver runs the session, records its
   {!Trace.Session} event and the slot's longest session; [on_slot_end]
   folds that into the raw-round total. Faults and jamming act at the
   abstract-slot level exactly as in {!Engine.run}. *)
let run_machine ?(strategy = Decay) ?session_cap ?jammer ?faults ?metrics ?trace
    ?stop ~availability ~rng ~machine ~max_slots () =
  let n = Crn_channel.Dynamic.num_nodes availability in
  if n = 0 then invalid_arg "Emulation.run: no nodes";
  if max_slots < 0 then invalid_arg "Emulation.run: negative max_slots";
  (match metrics with
  | Some m when Array.length m.Metrics.transmissions <> n ->
      invalid_arg "Emulation.run: metrics sized for a different node count"
  | _ -> ());
  let session_cap =
    match session_cap with
    | None -> Backoff.expected_rounds_bound n
    | Some cap when cap < 1 -> invalid_arg "Emulation.run: session_cap must be >= 1"
    | Some cap -> cap
  in
  let raw_rounds = ref 0 and failed_sessions = ref 0 in
  (* Sessions on distinct channels run concurrently, so a slot costs its
     longest session; a slot without one still costs a raw round. *)
  let slot_rounds = ref 1 in
  let resolve ~slot ~channel ~contenders =
    let session =
      match strategy with
      | Decay -> Backoff.session ~rng ~contenders ~cap:session_cap
      | Csma -> Csma.session ~rng ~contenders ~cap:session_cap ()
    in
    let winner, rounds =
      match session with
      | Some { Backoff.winner; rounds } -> (winner, rounds)
      | None ->
          incr failed_sessions;
          (-1, session_cap)
    in
    slot_rounds := max !slot_rounds rounds;
    (match trace with
    | Some tr ->
        Trace.record tr
          (Trace.Session { slot; channel; contenders; rounds; ok = winner >= 0 })
    | None -> ());
    winner
  in
  let on_slot_end ~slot:_ =
    raw_rounds := !raw_rounds + !slot_rounds;
    slot_rounds := 1
  in
  let o =
    Soa.run ?jammer ?faults ?metrics ?trace ?stop ~on_slot_end ~resolve
      ~availability ~rng ~protocol:(Soa_adapter.machine ~n machine) ~max_slots ()
  in
  {
    slots_run = o.Soa.slots_run;
    raw_rounds = !raw_rounds;
    failed_sessions = !failed_sessions;
    stopped_early = o.Soa.stopped_early;
    counters = o.Soa.counters;
  }

let run ?strategy ?session_cap ?jammer ?faults ?metrics ?trace ?stop
    ~availability ~rng ~nodes ~max_slots () =
  Soa_adapter.check_nodes ~who:"Emulation.run" ~availability nodes;
  run_machine ?strategy ?session_cap ?jammer ?faults ?metrics ?trace ?stop
    ~availability ~rng ~machine:(Soa_adapter.of_nodes nodes) ~max_slots ()
