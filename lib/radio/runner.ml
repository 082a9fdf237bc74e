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

(* The polymorphic slot loop of one backend: a record field, so one runner
   serves every message and result type a multi-phase protocol uses. *)
type t = {
  exec :
    'msg 'r.
    stop:(slot:int -> bool) -> ('msg, 'r) Machine.t -> max_slots:int -> outcome;
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
    exec =
      (fun ~stop m ~max_slots ->
        let outcome = runner.exec ~stop m ~max_slots in
        total := add !total outcome;
        outcome);
  }

let make ?pool ?machine_parallel:(parallel = false) ?jammer ?faults ?metrics
    ?trace ?(backend = Engine) ~availability ~rng () =
  let n = Crn_channel.Dynamic.num_nodes availability in
  match backend with
  | Engine | Soa _ ->
      let shards, dense_channel_limit =
        match backend with
        | Soa { shards; dense_channel_limit } -> (shards, dense_channel_limit)
        | _ -> (1, None)
      in
      {
        exec =
          (fun ~stop m ~max_slots ->
            of_engine
              (Soa.run ?pool ~shards ?dense_channel_limit ?jammer ?faults
                 ?metrics ?trace ~stop ~availability ~rng
                 ~protocol:(Soa_adapter.machine ~parallel ~n m) ~max_slots ()));
      }
  | Reference ->
      {
        exec =
          (fun ~stop machine ~max_slots ->
            of_engine
              (Reference.run_machine ?jammer ?faults ?metrics ?trace ~stop
                 ~availability ~rng ~machine ~max_slots ()));
      }
  | Emulation { strategy; session_cap } ->
      {
        exec =
          (fun ~stop machine ~max_slots ->
            of_emulation
              (Emulation.run_machine ~strategy ?session_cap ?jammer ?faults
                 ?metrics ?trace ~stop ~availability ~rng ~machine ~max_slots
                 ()));
      }

let drive ?stop runner (m : (_, _) Machine.t) ~max_slots =
  let outcome =
    match stop with
    | Some stop -> runner.exec ~stop m ~max_slots
    | None ->
        (* A machine that is complete before the first slot runs zero
           slots. *)
        let max_slots = if m.finished () then 0 else max_slots in
        runner.exec ~stop:(fun ~slot:_ -> m.finished ()) m ~max_slots
  in
  (m.snapshot ~slots_run:outcome.slots_run, outcome)
