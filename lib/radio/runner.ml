type backend =
  | Engine
  | Emulation of { strategy : Emulation.strategy; session_cap : int option }
  | Reference
  | Soa of { shards : int; dense_channel_limit : int option }

let backend_name = function
  | Engine -> "engine"
  | Emulation { strategy = Emulation.Decay; _ } -> "emulation"
  | Emulation { strategy = Emulation.Csma; _ } -> "emulation-csma"
  | Reference -> "reference"
  | Soa _ -> "soa"

type outcome = {
  slots_run : int;
  stopped_early : bool;
  counters : Trace.Counters.t;
  raw_rounds : int;
  failed_sessions : int;
}

type t = {
  num_nodes : int;
  run :
    'msg.
    ?stop:(slot:int -> bool) ->
    nodes:'msg Engine.node array ->
    max_slots:int ->
    unit ->
    outcome;
}

let of_engine (o : Engine.outcome) =
  {
    slots_run = o.Engine.slots_run;
    stopped_early = o.Engine.stopped_early;
    counters = o.Engine.counters;
    raw_rounds = 0;
    failed_sessions = 0;
  }

let of_emulation (o : Emulation.outcome) =
  {
    slots_run = o.Emulation.slots_run;
    stopped_early = o.Emulation.stopped_early;
    counters = o.Emulation.counters;
    raw_rounds = o.Emulation.raw_rounds;
    failed_sessions = o.Emulation.failed_sessions;
  }

let add a b =
  let counters = Trace.Counters.create () in
  Trace.Counters.add ~into:counters a.counters;
  Trace.Counters.add ~into:counters b.counters;
  {
    slots_run = a.slots_run + b.slots_run;
    stopped_early = a.stopped_early || b.stopped_early;
    counters;
    raw_rounds = a.raw_rounds + b.raw_rounds;
    failed_sessions = a.failed_sessions + b.failed_sessions;
  }

let accumulating total runner =
  {
    runner with
    run =
      (fun ?stop ~nodes ~max_slots () ->
        let outcome = runner.run ?stop ~nodes ~max_slots () in
        total := add !total outcome;
        outcome);
  }

let make ?pool ?machine_parallel:(parallel = false) ?jammer ?faults ?metrics
    ?trace ?(backend = Engine) ~availability ~rng () =
  let num_nodes = Crn_channel.Dynamic.num_nodes availability in
  match backend with
  | Engine | Soa _ ->
      let shards, dense_channel_limit =
        match backend with
        | Soa { shards; dense_channel_limit } -> (shards, dense_channel_limit)
        | _ -> (1, None)
      in
      {
        num_nodes;
        run =
          (fun ?stop ~nodes ~max_slots () ->
            if Array.length nodes <> num_nodes then
              invalid_arg
                "Runner: node array disagrees with availability node count";
            let protocol = Soa_adapter.protocol ~parallel nodes in
            of_engine
              (Soa.run ?pool ~shards ?dense_channel_limit ?jammer ?faults
                 ?metrics ?trace ?stop ~availability ~rng ~protocol ~max_slots
                 ()));
      }
  | Reference ->
      {
        num_nodes;
        run =
          (fun ?stop ~nodes ~max_slots () ->
            of_engine
              (Reference.engine_run ?jammer ?faults ?metrics ?trace ?stop
                 ~availability ~rng ~nodes ~max_slots ()));
      }
  | Emulation { strategy; session_cap } ->
      {
        num_nodes;
        run =
          (fun ?stop ~nodes ~max_slots () ->
            of_emulation
              (Emulation.run ~strategy ?session_cap ?jammer ?faults ?metrics
                 ?trace ?stop ~availability ~rng ~nodes ~max_slots ()));
      }

let drive runner (m : (_, _) Machine.t) ~max_slots =
  let nodes =
    Array.init runner.num_nodes (fun v ->
        Engine.node ~id:v
          ~decide:(fun ~slot -> m.decide ~node:v ~slot)
          ~feedback:(fun ~slot fb -> m.feedback ~node:v ~slot fb))
  in
  (* A machine that is complete before the first slot runs zero slots. *)
  let max_slots = if m.finished () then 0 else max_slots in
  let outcome =
    runner.run ~stop:(fun ~slot:_ -> m.finished ()) ~nodes ~max_slots ()
  in
  (m.snapshot ~slots_run:outcome.slots_run, outcome)
