module Rng = Crn_prng.Rng
module Dynamic = Crn_channel.Dynamic
module Action = Crn_radio.Action
module Runner = Crn_radio.Runner
module Trace = Crn_radio.Trace

type msg = Init

type event =
  | Sent_won
  | Sent_lost
  | Got_informed of { parent : int }
  | Heard_silence
  | Was_jammed
  | Session_failed

type slot_log = { label : int; event : event }

type result = {
  n : int;
  source : int;
  completed_at : int option;
  slots_run : int;
  informed : bool array;
  informed_count : int;
  parent : int option array;
  informed_at : int option array;
  informed_label : int option array;
  logs : slot_log array array option;
  counters : Trace.Counters.t;
  raw_rounds : int;
  failed_sessions : int;
}

include Crn_radio.Machine

type machine = (msg, result) t

(* Shard safety (for the {!Crn_radio.Runner.Soa} backend): [informed],
   [parent], [informed_at], [informed_label] and [current_label] are
   node-indexed and only ever written at the node's own index from the
   callback that owns it; [informed_count] is an [Atomic] bumped by
   fetch-and-add, whose total is shard-count independent because a node
   is informed at most once; each node draws labels from its own
   pre-split stream. Hence [run] passes [machine_parallel:true]. *)
let machine ?trace ?record_slots ?(stop_when_complete = true) ~source
    ~availability ~rng () =
  let n = Dynamic.num_nodes availability in
  let c = Dynamic.channels_per_node availability in
  if source < 0 || source >= n then invalid_arg "Cogcast.run: source out of range";
  let informed = Array.make n false in
  informed.(source) <- true;
  let informed_count = Atomic.make 1 in
  let parent = Array.make n None in
  let informed_at = Array.make n None in
  let informed_label = Array.make n None in
  let logs =
    Option.map
      (fun slots ->
        Array.init n (fun _ -> Array.make slots { label = 0; event = Heard_silence }))
      record_slots
  in
  let streams = Rng.Arena.split_n rng n in
  (* The label each node chose this slot, so feedback can be logged against
     it. *)
  let current_label = Array.make n 0 in
  let log v ~slot event =
    match logs with
    | Some table -> table.(v).(slot) <- { label = current_label.(v); event }
    | None -> ()
  in
  let decide ~node:v ~slot:_ =
    let label = Rng.Arena.int streams v c in
    current_label.(v) <- label;
    if informed.(v) then Action.broadcast ~label Init
    else Action.listen ~label
  in
  let feedback ~node:v ~slot fb =
    match fb with
    | Action.Won -> log v ~slot Sent_won
    | Action.Lost _ -> log v ~slot Sent_lost
    | Action.Heard { sender; msg = Init } ->
        (* A listener is uninformed by construction, so this is the first
           reception: record the tree edge. *)
        informed.(v) <- true;
        ignore (Atomic.fetch_and_add informed_count 1);
        parent.(v) <- Some sender;
        informed_at.(v) <- Some slot;
        informed_label.(v) <- Some current_label.(v);
        (match trace with
        | Some tr ->
            Trace.record tr
              (Trace.Informed
                 { slot; node = v; parent = sender; label = current_label.(v) })
        | None -> ());
        log v ~slot (Got_informed { parent = sender })
    | Action.Silence -> log v ~slot Heard_silence
    | Action.Jammed -> log v ~slot Was_jammed
    | Action.No_winner -> log v ~slot Session_failed
  in
  (* A one-node network is complete before the first slot. *)
  let finished () = stop_when_complete && Atomic.get informed_count = n in
  let snapshot ~slots_run =
    let informed_count = Atomic.get informed_count in
    {
      n;
      source;
      completed_at = (if informed_count = n then Some slots_run else None);
      slots_run;
      informed;
      informed_count;
      parent;
      informed_at;
      informed_label;
      logs;
      counters = Trace.Counters.create ();
      raw_rounds = 0;
      failed_sessions = 0;
    }
  in
  { decide; feedback; finished; snapshot }

let run ?pool ?jammer ?faults ?metrics ?trace ?backend ?(record = false)
    ?stop_when_complete ~source ~availability ~rng ~max_slots () =
  let m =
    machine ?trace
      ?record_slots:(if record then Some max_slots else None)
      ?stop_when_complete ~source ~availability ~rng ()
  in
  Option.iter (Trace.preamble ~availability ~source ~name:"cogcast") trace;
  let runner =
    Runner.make ?pool ~machine_parallel:true ?jammer ?faults ?metrics ?trace
      ?backend ~availability ~rng ()
  in
  let result, outcome = Runner.drive runner m ~max_slots in
  {
    result with
    counters = outcome.Runner.counters;
    raw_rounds = outcome.Runner.raw_rounds;
    failed_sessions = outcome.Runner.failed_sessions;
  }

let run_static ?pool ?jammer ?faults ?metrics ?trace ?backend ?record
    ?stop_when_complete ?budget_factor ~source ~assignment ~k ~rng () =
  let n = Crn_channel.Assignment.num_nodes assignment in
  let c = Crn_channel.Assignment.channels_per_node assignment in
  let max_slots = Complexity.cogcast_slots ?factor:budget_factor ~n ~c ~k () in
  run ?pool ?jammer ?faults ?metrics ?trace ?backend ?record
    ?stop_when_complete ~source
    ~availability:(Dynamic.static assignment) ~rng ~max_slots ()

let label_oracle ~seed ~n ~c ~node =
  (* Mirrors [run]: the run splits one child generator per node from the
     top-level rng before the engine consumes it, and each node draws one
     label per slot. *)
  let streams = Rng.Arena.split_n (Rng.create seed) n in
  fun ~slot:_ -> Rng.Arena.int streams node c
