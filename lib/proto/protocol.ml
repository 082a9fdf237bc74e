module Dynamic = Crn_channel.Dynamic
module Runner = Crn_radio.Runner
module Trace = Crn_radio.Trace
module Json = Crn_stats.Json

type arrivals = Poisson | Uniform

type load = { rate : float; arrivals : arrivals; rumors : int }

type env = {
  availability : Dynamic.t;
  rng : Crn_prng.Rng.t;
  source : int;
  k : int;
  budget_factor : float option;
  max_slots : int option;
  jammer : Crn_radio.Jammer.t option;
  faults : Crn_radio.Faults.t option;
  metrics : Crn_radio.Metrics.t option;
  trace : Trace.t option;
  backend : Runner.backend;
  load : load option;
}

let env ?(source = 0) ?(k = 1) ?budget_factor ?max_slots ?jammer ?faults ?metrics
    ?trace ?(backend = Runner.Engine) ?load ~availability ~rng () =
  Option.iter (Crn_core.Complexity.check_factor ~who:"Protocol.env") budget_factor;
  (match load with
  | Some { rate; _ } when not (rate > 0.0) ->
      invalid_arg "Protocol.env: load rate must be > 0"
  | Some { rumors; _ } when rumors < 1 ->
      invalid_arg "Protocol.env: load rumors must be >= 1"
  | _ -> ());
  {
    availability;
    rng;
    source;
    k;
    budget_factor;
    max_slots;
    jammer;
    faults;
    metrics;
    trace;
    backend;
    load;
  }

(* Declared before [summary] so that [summary]'s fields, which it shares,
   win unqualified field lookups. *)
type report = { completed_at : int option; coverage : float; detail : Json.t }

type summary = {
  protocol : string;
  slots_run : int;
  completed : bool;
  completed_at : int option;
  coverage : float;
  raw_rounds : int;
  failed_sessions : int;
  counters : Trace.Counters.t;
  detail : Json.t;
}

let summary_json s =
  let c = s.counters in
  Json.Obj
    [
      ("protocol", Json.String s.protocol);
      ("slots_run", Json.Int s.slots_run);
      ("completed", Json.Bool s.completed);
      ( "completed_at",
        match s.completed_at with Some v -> Json.Int v | None -> Json.Null );
      ("coverage", Json.Float s.coverage);
      ("raw_rounds", Json.Int s.raw_rounds);
      ("failed_sessions", Json.Int s.failed_sessions);
      ( "counters",
        Json.Obj
          [
            ("slots_run", Json.Int c.Trace.Counters.slots_run);
            ("broadcasts", Json.Int c.Trace.Counters.broadcasts);
            ("wins", Json.Int c.Trace.Counters.wins);
            ("contended", Json.Int c.Trace.Counters.contended);
            ("deliveries", Json.Int c.Trace.Counters.deliveries);
            ("jammed_actions", Json.Int c.Trace.Counters.jammed_actions);
          ] );
      ("detail", s.detail);
    ]

type capabilities = { dynamic : bool; max_slots : bool; metrics : bool; load : bool }

type t = {
  p_name : string;
  p_synopsis : string;
  p_capabilities : capabilities;
  p_exec : env -> summary;
}

let name t = t.p_name
let synopsis t = t.p_synopsis
let capabilities t = t.p_capabilities

let unsupported t what =
  Printf.sprintf "%s does not support %s (crn_sim protocols lists what each \
                  entry supports)"
    t.p_name what

(* The one place environment features are checked against what the entry
   declared: a feature it cannot honor is rejected, never silently
   dropped. *)
let run t (env : env) =
  let c = t.p_capabilities in
  let reject what = invalid_arg (unsupported t what) in
  if env.max_slots <> None && not c.max_slots then reject "max_slots";
  if env.metrics <> None && not c.metrics then reject "metrics";
  if env.load <> None && not c.load then reject "load";
  t.p_exec env

let of_run ~name ~synopsis ~capabilities exec =
  { p_name = name; p_synopsis = synopsis; p_capabilities = capabilities; p_exec = exec }

(* The generic driver: the machine runs on the environment's backend
   through [Runner.drive], after the trace preamble every protocol trace
   opens with (a Meta header, then a phase marker named after the
   protocol). *)
let exec_machine ~name ~shardable ~budget ~init ~summarize env =
  Option.iter
    (Trace.preamble ~availability:env.availability ~source:env.source ~name)
    env.trace;
  let machine = init env in
  let max_slots =
    match env.max_slots with Some m -> m | None -> budget env
  in
  let runner =
    Runner.make ~machine_parallel:shardable ?jammer:env.jammer
      ?faults:env.faults ?metrics:env.metrics ?trace:env.trace
      ~backend:env.backend
      ~availability:env.availability ~rng:env.rng ()
  in
  let result, outcome = Runner.drive runner machine ~max_slots in
  let r : report = summarize env result in
  (* The machine reports what only it knows; the channel accounting and
     the emulation's raw-round/failed-session cost come from the run that
     actually happened. *)
  {
    protocol = name;
    slots_run = outcome.Runner.slots_run;
    completed = r.completed_at <> None;
    completed_at = r.completed_at;
    coverage = r.coverage;
    raw_rounds = outcome.Runner.raw_rounds;
    failed_sessions = outcome.Runner.failed_sessions;
    counters = outcome.Runner.counters;
    detail = r.detail;
  }

let of_machine ~name ~synopsis ~capabilities ~shardable ~budget ~init
    ~summarize =
  of_run ~name ~synopsis ~capabilities
    (exec_machine ~name ~shardable ~budget ~init ~summarize)
