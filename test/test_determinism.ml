(* Determinism and differential-equivalence tests for the rewritten slot
   engines.

   Two claims are enforced here:

   1. Equivalence: the allocation-free {!Engine.run} / {!Emulation.run} are
      observationally identical to the list-based executable specifications
      in {!Reference} — same outcome structs and counters, same per-node
      feedback sequences, same metrics, byte-equal JSONL traces — over
      randomized topologies, jammers, faults, dynamic availabilities and
      early stops.

   2. Determinism: identical-seed runs produce byte-equal traces no matter
      how many domains the trial runner uses (--jobs 1/2/8) and no matter
      how often they are repeated, and channels are resolved in the
      documented canonical order (ascending global channel id). *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Dynamic = Crn_channel.Dynamic
module Action = Crn_radio.Action
module Engine = Crn_radio.Engine
module Emulation = Crn_radio.Emulation
module Reference = Crn_radio.Reference
module Trace = Crn_radio.Trace
module Metrics = Crn_radio.Metrics
module Jammer = Crn_radio.Jammer
module Faults = Crn_radio.Faults
module Cogcast = Crn_core.Cogcast

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* A generic adversarial protocol: every node draws a label and a
   broadcast/listen coin from its own stream each slot, and folds every
   feedback it receives into an order-sensitive digest. Two engine runs
   behave identically iff the digests match (and the traces are
   byte-equal, which is also checked). *)

let mix d x = (d * 1000003) lxor x

let digest_feedback d = function
  | Action.Heard { sender; msg } -> mix (mix (mix d 1) sender) msg
  | Action.Silence -> mix d 2
  | Action.Won -> mix d 3
  | Action.Lost { winner; msg } -> mix (mix (mix d 4) winner) msg
  | Action.Jammed -> mix d 5
  | Action.No_winner -> mix d 6

let make_nodes ~seed ~n ~c ~digests =
  let node_rngs = Rng.split_n (Rng.create seed) n in
  Array.init n (fun i ->
      Engine.node ~id:i
        ~decide:(fun ~slot:_ ->
          let label = Rng.int node_rngs.(i) c in
          if Rng.bool node_rngs.(i) then Action.broadcast ~label ((i * 7919) + label)
          else Action.listen ~label)
        ~feedback:(fun ~slot fb ->
          digests.(i) <- digest_feedback (mix digests.(i) slot) fb))

type run_output = {
  out_slots : int;
  out_stopped : bool;
  out_counters : Trace.Counters.t;
  out_trace : string;
  out_metrics : int list;
  out_digests : int array;
}

let counters_fields (c : Trace.Counters.t) =
  [
    c.Trace.Counters.slots_run;
    c.Trace.Counters.broadcasts;
    c.Trace.Counters.wins;
    c.Trace.Counters.contended;
    c.Trace.Counters.deliveries;
    c.Trace.Counters.jammed_actions;
  ]

let check_counters label a b =
  Alcotest.(check (list int)) label (counters_fields a) (counters_fields b)

(* One randomized scenario, fully determined by [seed]: topology shape,
   dynamic availability, jammer and fault schedule all derived from it. *)
type scenario = {
  n : int;
  c : int;
  availability : Dynamic.t;
  jammer : unit -> Jammer.t; (* fresh per run: reactive jammers are stateful *)
  faults : Faults.t;
  stop_at : int option;
  max_slots : int;
}

let scenario seed =
  let rng = Rng.create (10_000 + seed) in
  let n = 2 + Rng.int rng 30 in
  let c = 2 + Rng.int rng 8 in
  let k = 1 + Rng.int rng (min 3 c) in
  let spec = { Topology.n; c; k } in
  let kind =
    match seed mod 3 with
    | 0 -> Topology.Shared_core
    | 1 -> Topology.Shared_plus_random
    | _ -> Topology.Clustered
  in
  let assignment = Topology.generate kind rng spec in
  let availability =
    if seed mod 5 = 0 then Dynamic.rotating assignment else Dynamic.static assignment
  in
  let num_channels = Crn_channel.Assignment.num_channels assignment in
  let jammer () =
    match seed mod 4 with
    | 0 ->
        Jammer.random_per_node
          ~seed:(Int64.of_int (seed * 77))
          ~budget:1 ~num_channels
    | 1 -> Jammer.reactive ()
    | _ -> Jammer.none
  in
  let faults =
    if seed mod 2 = 0 then
      Faults.random_naps ~seed:(Int64.of_int (seed * 131)) ~rate:0.15
    else Faults.none
  in
  let stop_at = if seed mod 6 = 0 then Some (5 + (seed mod 7)) else None in
  { n; c; availability; jammer; faults; stop_at; max_slots = 40 }

let run_engine_impl sc ~seed impl =
  let digests = Array.make sc.n 0 in
  let nodes = make_nodes ~seed ~n:sc.n ~c:sc.c ~digests in
  let tr = Trace.create () in
  let m = Metrics.create sc.n in
  let stop = Option.map (fun at -> fun ~slot -> slot >= at) sc.stop_at in
  let outcome =
    impl ?stop ~jammer:(sc.jammer ()) ~faults:sc.faults ~metrics:m ~trace:tr
      ~availability:sc.availability
      ~rng:(Rng.create (seed * 17))
      ~nodes ~max_slots:sc.max_slots ()
  in
  {
    out_slots = outcome.Engine.slots_run;
    out_stopped = outcome.Engine.stopped_early;
    out_counters = outcome.Engine.counters;
    out_trace = Trace.to_jsonl tr;
    out_metrics =
      Array.to_list m.Metrics.transmissions
      @ Array.to_list m.Metrics.receptions
      @ Array.to_list m.Metrics.awake_slots
      @ Array.to_list m.Metrics.jammed;
    out_digests = digests;
  }

let compare_outputs label a b =
  check_int (label ^ ": slots_run") a.out_slots b.out_slots;
  check (label ^ ": stopped_early") a.out_stopped b.out_stopped;
  check_counters (label ^ ": counters") a.out_counters b.out_counters;
  Alcotest.(check (list int)) (label ^ ": metrics") a.out_metrics b.out_metrics;
  Alcotest.(check (array int)) (label ^ ": feedback digests") a.out_digests b.out_digests;
  check_str (label ^ ": trace bytes") a.out_trace b.out_trace

(* Differential: optimized engine vs executable specification, across many
   randomized scenarios (jammers, faults, dynamic availability, stops). *)
let test_engine_matches_reference () =
  for seed = 1 to 24 do
    let sc = scenario seed in
    let fast =
      run_engine_impl sc ~seed (fun ?stop ~jammer ~faults ~metrics ~trace ->
          Engine.run ?stop ?on_slot_end:None ~jammer ~faults ~metrics ~trace)
    in
    let spec =
      run_engine_impl sc ~seed (fun ?stop ~jammer ~faults ~metrics ~trace ->
          Reference.engine_run ?stop ?on_slot_end:None ~jammer ~faults ~metrics ~trace)
    in
    compare_outputs (Printf.sprintf "engine seed %d" seed) fast spec
  done

(* The emulation differential exercises the full capability matrix the
   backend now shares with the engine: both contention strategies, jammers
   (including reactive), fault schedules, metrics, and — on seeds with a
   tight session cap — failed sessions (No_winner feedback). *)
let run_emulation_impl sc ~seed impl =
  let digests = Array.make sc.n 0 in
  let nodes = make_nodes ~seed ~n:sc.n ~c:sc.c ~digests in
  let tr = Trace.create () in
  let m = Metrics.create sc.n in
  let stop = Option.map (fun at -> fun ~slot -> slot >= at) sc.stop_at in
  let outcome =
    impl ?stop ~jammer:(sc.jammer ()) ~faults:sc.faults ~metrics:m ~trace:tr
      ~availability:sc.availability
      ~rng:(Rng.create (seed * 17))
      ~nodes ~max_slots:sc.max_slots ()
  in
  ( {
      out_slots = outcome.Emulation.slots_run;
      out_stopped = outcome.Emulation.stopped_early;
      out_counters = outcome.Emulation.counters;
      out_trace = Trace.to_jsonl tr;
      out_metrics =
        Array.to_list m.Metrics.transmissions
        @ Array.to_list m.Metrics.receptions
        @ Array.to_list m.Metrics.awake_slots
        @ Array.to_list m.Metrics.jammed;
      out_digests = digests;
    },
    outcome )

let test_emulation_matches_reference () =
  List.iter
    (fun (strategy, sname) ->
      for seed = 1 to 24 do
        let sc = scenario seed in
        (* A tight cap on some seeds forces failed sessions through both
           implementations. *)
        let session_cap = if seed mod 3 = 0 then Some 3 else None in
        let fast, fast_out =
          run_emulation_impl sc ~seed
            (fun ?stop ~jammer ~faults ~metrics ~trace ->
              Emulation.run ~strategy ?session_cap ?stop ~jammer ~faults
                ~metrics ~trace)
        in
        let spec, spec_out =
          run_emulation_impl sc ~seed
            (fun ?stop ~jammer ~faults ~metrics ~trace ->
              Reference.emulation_run ~strategy ?session_cap ?stop ~jammer
                ~faults ~metrics ~trace)
        in
        let label = Printf.sprintf "emulation(%s) seed %d" sname seed in
        compare_outputs label fast spec;
        check_int (label ^ ": raw_rounds") fast_out.Emulation.raw_rounds
          spec_out.Emulation.raw_rounds;
        check_int (label ^ ": failed_sessions")
          fast_out.Emulation.failed_sessions
          spec_out.Emulation.failed_sessions
      done)
    [ (Emulation.Decay, "decay"); (Emulation.Csma, "csma") ]

(* ------------------------------------------------------------------ *)
(* Canonical order: within every slot of a traced run, events come in the
   per-slot order Trace documents — Down/Jam/Decide by ascending node,
   Session then Win by ascending channel, Deliver/Silent by ascending
   node — on the engine and on both emulation strategies. Scenario 4 arms
   a jammer and naps; the tight session cap makes sessions fail. *)
let test_wins_in_canonical_order () =
  let wins = ref 0 and failed = ref 0 in
  let check_order label tr =
    (* Each event's position in the order: (slot, group, node or channel). *)
    let key = function
      | Trace.Down { slot; node } | Trace.Jam { slot; node; _ }
      | Trace.Decide { slot; node; _ } ->
          Some (slot, 0, node)
      | Trace.Session { slot; channel; ok; _ } ->
          if not ok then incr failed;
          Some (slot, 1, channel)
      | Trace.Win { slot; channel; _ } ->
          incr wins;
          Some (slot, 2, channel)
      | Trace.Deliver { slot; receiver = node; _ } | Trace.Silent { slot; node; _ }
        ->
          Some (slot, 3, node)
      | _ -> None
    in
    let last = ref (-1, 0, 0) in
    Trace.iter
      (fun ev ->
        match key ev with
        | Some ((slot, group, id) as k) ->
            check
              (Printf.sprintf "%s: slot %d group %d id %d after %s" label slot
                 group id
                 (let s, g, i = !last in
                  Printf.sprintf "(%d,%d,%d)" s g i))
              true (k > !last);
            last := k
        | None -> ())
      tr
  in
  List.iter
    (fun seed ->
      let sc = scenario seed in
      let nodes () = make_nodes ~seed ~n:sc.n ~c:sc.c ~digests:(Array.make sc.n 0) in
      let traced label run =
        let tr = Trace.create () in
        run tr;
        check_order (Printf.sprintf "%s seed %d" label seed) tr
      in
      traced "engine" (fun trace ->
          ignore
            (Engine.run ~jammer:(sc.jammer ()) ~faults:sc.faults ~trace
               ~availability:sc.availability ~rng:(Rng.create 51)
               ~nodes:(nodes ()) ~max_slots:sc.max_slots ()));
      List.iter
        (fun (strategy, sname) ->
          traced ("emulation " ^ sname) (fun trace ->
              ignore
                (Emulation.run ~strategy ~session_cap:3 ~jammer:(sc.jammer ())
                   ~faults:sc.faults ~trace ~availability:sc.availability
                   ~rng:(Rng.create 51) ~nodes:(nodes ()) ~max_slots:sc.max_slots
                   ())))
        [ (Emulation.Decay, "decay"); (Emulation.Csma, "csma") ])
    [ 3; 4 ];
  check "saw wins" true (!wins > 0);
  check "saw failed sessions" true (!failed > 0)

(* ------------------------------------------------------------------ *)
(* Identical-seed runs are byte-identical, repeated in-process and at any
   trial parallelism. Each trial records a full COGCAST trace; the arrays
   of JSONL dumps must agree byte-for-byte across --jobs 1/2/8. *)

let traced_cogcast rng =
  let spec = { Topology.n = 24; c = 8; k = 2 } in
  let assignment = Topology.shared_core rng spec in
  let tr = Trace.create () in
  ignore
    (Cogcast.run ~trace:tr ~source:0
       ~availability:(Dynamic.static assignment)
       ~rng ~max_slots:500 ());
  Trace.to_jsonl tr

let test_traces_identical_across_jobs () =
  let trials = 6 and seed = 4242 in
  let sequential = Crn_exec.Trials.run_seq ~trials ~seed traced_cogcast in
  List.iter
    (fun jobs ->
      let parallel =
        Crn_exec.Trials.run_jobs ~jobs ~trials ~seed traced_cogcast
      in
      for i = 0 to trials - 1 do
        check_str
          (Printf.sprintf "trial %d at --jobs %d" i jobs)
          sequential.(i) parallel.(i)
      done)
    [ 1; 2; 8 ]

let test_repeat_runs_byte_equal () =
  let one () =
    let sc = scenario 7 in
    let out =
      run_engine_impl sc ~seed:7 (fun ?stop ~jammer ~faults ~metrics ~trace ->
          Engine.run ?stop ?on_slot_end:None ~jammer ~faults ~metrics ~trace)
    in
    out.out_trace
  in
  check_str "same seed, same bytes" (one ()) (one ())

(* ------------------------------------------------------------------ *)
(* Sustained-traffic workloads obey the same two claims: registry runs of
   the gossip and push-sum machines are byte-identical at any --jobs, and
   driving the machines on the Reference backend instead of the Engine one
   yields the same trace bytes and the same result struct. *)

module Arrivals = Crn_workload.Arrivals
module Gossip = Crn_workload.Gossip
module Push_sum = Crn_workload.Push_sum
module Protocol = Crn_proto.Protocol
module Registry = Crn_proto.Registry
module Runner = Crn_radio.Runner

let traced_workload name rng =
  let spec = { Topology.n = 16; c = 6; k = 2 } in
  let assignment = Topology.generate Topology.Shared_plus_random rng spec in
  let tr = Trace.create () in
  let load = { Protocol.rate = 0.25; arrivals = Protocol.Poisson; rumors = 4 } in
  let s =
    Protocol.run (Registry.find_exn name)
      (Protocol.env ~trace:tr ~k:2 ~load
         ~availability:(Dynamic.static assignment)
         ~rng ())
  in
  Trace.to_jsonl tr ^ "\n" ^ Crn_stats.Json.to_string (Protocol.summary_json s)

let test_workload_traces_across_jobs () =
  List.iter
    (fun name ->
      let trials = 4 and seed = 7171 in
      let f = traced_workload name in
      let sequential = Crn_exec.Trials.run_seq ~trials ~seed f in
      List.iter
        (fun jobs ->
          let parallel = Crn_exec.Trials.run_jobs ~jobs ~trials ~seed f in
          for i = 0 to trials - 1 do
            check_str
              (Printf.sprintf "%s trial %d at --jobs %d" name i jobs)
              sequential.(i) parallel.(i)
          done)
        [ 1; 2; 8 ])
    [ "gossip"; "push_sum" ]

(* Each backend run rebuilds topology, arrivals and machine from the same
   seed, so the two engines see byte-identical inputs; the machine writes
   its rumor events into the same trace the engine writes its slot events
   into, so the byte comparison covers their interleaving too. *)
let workload_setup ~seed =
  let rng = Rng.create seed in
  let spec = { Topology.n = 16; c = 6; k = 2 } in
  let assignment = Topology.generate Topology.Shared_plus_random rng spec in
  let availability = Dynamic.static assignment in
  let arrivals =
    Arrivals.generate ~rng:(Rng.split rng) ~law:Arrivals.Poisson ~rate:0.25
      ~n:16 ~rumors:4
  in
  (rng, availability, arrivals, Trace.create ())

let run_workload_backend ~seed which build =
  let rng, availability, arrivals, tr = workload_setup ~seed in
  let m = build ~trace:tr ~arrivals ~availability ~rng in
  let backend =
    match which with `Fast -> Runner.Engine | `Spec -> Runner.Reference
  in
  let runner = Runner.make ~trace:tr ~backend ~availability ~rng () in
  let result, _ = Runner.drive runner m ~max_slots:2_000 in
  (Trace.to_jsonl tr, result)

let run_gossip_backend ~seed which =
  run_workload_backend ~seed which (fun ~trace ~arrivals ~availability ~rng ->
      Gossip.machine ~trace ~arrivals ~availability ~rng ())

let run_push_sum_backend ~seed which =
  run_workload_backend ~seed which (fun ~trace ~arrivals ~availability ~rng ->
      Push_sum.machine ~trace ~arrivals ~availability ~rng ())

let test_workload_engine_matches_reference () =
  for seed = 1 to 6 do
    let tr_f, r_f = run_gossip_backend ~seed:(9_000 + seed) `Fast in
    let tr_s, r_s = run_gossip_backend ~seed:(9_000 + seed) `Spec in
    check_str (Printf.sprintf "gossip seed %d: trace bytes" seed) tr_f tr_s;
    check (Printf.sprintf "gossip seed %d: results" seed) true (r_f = r_s);
    let tr_f, r_f = run_push_sum_backend ~seed:(9_100 + seed) `Fast in
    let tr_s, r_s = run_push_sum_backend ~seed:(9_100 + seed) `Spec in
    check_str (Printf.sprintf "push_sum seed %d: trace bytes" seed) tr_f tr_s;
    check (Printf.sprintf "push_sum seed %d: results" seed) true (r_f = r_s)
  done

(* ------------------------------------------------------------------ *)
(* Regression: COGCAST on the emulation backend used to report all-zero
   counters. Its counters, raw rounds and failed sessions must agree with
   the recorded trace event by event. *)
let test_emulated_counters_real () =
  let rng = Rng.create 5 in
  let spec = { Topology.n = 24; c = 8; k = 2 } in
  let assignment = Topology.shared_core rng spec in
  let tr = Trace.create () in
  let r =
    Cogcast.run
      ~backend:
        (Crn_radio.Runner.Emulation { strategy = Emulation.Decay; session_cap = None })
      ~trace:tr ~source:0 ~availability:(Dynamic.static assignment) ~rng
      ~max_slots:2_000 ()
  in
  check "run completes" true (r.Cogcast.completed_at <> None);
  (* A slot costs its longest session, and at least one raw round. *)
  let longest = Hashtbl.create 64 and failed = ref 0 in
  Trace.iter
    (function
      | Trace.Session { slot; rounds; ok; _ } ->
          if not ok then incr failed;
          Hashtbl.replace longest slot
            (max rounds (Option.value ~default:1 (Hashtbl.find_opt longest slot)))
      | _ -> ())
    tr;
  check_int "raw rounds from trace"
    (Hashtbl.fold (fun _ m acc -> acc + m - 1) longest r.Cogcast.slots_run)
    r.Cogcast.raw_rounds;
  check_int "failed sessions from trace" !failed r.Cogcast.failed_sessions;
  let c = r.Cogcast.counters in
  check "counters not all zero" true (c.Trace.Counters.deliveries > 0);
  (* Replay the trace and re-derive every counter. *)
  let wins = ref 0
  and deliveries = ref 0
  and broadcasts = ref 0
  and contended = ref 0 in
  Trace.iter
    (function
      | Trace.Win _ -> incr wins
      | Trace.Deliver _ -> incr deliveries
      | Trace.Decide { tx = true; _ } -> incr broadcasts
      | Trace.Session { contenders; _ } when contenders > 1 -> incr contended
      | _ -> ())
    tr;
  check_int "wins from trace" !wins c.Trace.Counters.wins;
  check_int "deliveries from trace" !deliveries c.Trace.Counters.deliveries;
  check_int "broadcasts from trace" !broadcasts c.Trace.Counters.broadcasts;
  check_int "contended from trace" !contended c.Trace.Counters.contended;
  check_int "jammed is zero at this layer" 0 c.Trace.Counters.jammed_actions;
  check_int "slots_run" r.Cogcast.slots_run c.Trace.Counters.slots_run;
  (* Every informed node except the source heard the message at least once. *)
  check "deliveries cover the tree" true
    (c.Trace.Counters.deliveries >= r.Cogcast.informed_count - 1)

(* ------------------------------------------------------------------ *)
(* Satellite: counters parity across backends. A scripted protocol (fixed
   decisions, no randomness) must produce identical Trace.Counters on the
   engine and on the emulation — broadcasts/wins/contended/deliveries/
   slots_run count abstract-slot events on both sides, and deliveries
   count listener receptions only (a losing broadcaster's reception is
   Lost, not a delivery). The winner may differ (the engine draws it, the
   session races it), so only the accounting is compared. *)
let test_counters_parity_engine_vs_emulation () =
  let n = 8 and c = 2 in
  let spec = { Topology.n; c; k = 2 } in
  let assignment = Topology.shared_core (Rng.create 99) spec in
  let availability = Dynamic.static assignment in
  (* Slot s: nodes with (v + s) mod 3 = 0 broadcast on label (s mod c),
     everyone else listens on label (v mod c). *)
  let scripted () =
    Array.init n (fun v ->
        Engine.node ~id:v
          ~decide:(fun ~slot ->
            if (v + slot) mod 3 = 0 then Action.broadcast ~label:(slot mod c) v
            else Action.listen ~label:(v mod c))
          ~feedback:(fun ~slot:_ _ -> ()))
  in
  let engine =
    (Engine.run ~availability ~rng:(Rng.create 7) ~nodes:(scripted ())
       ~max_slots:30 ())
      .Engine.counters
  in
  List.iter
    (fun (strategy, sname) ->
      let emu =
        (Emulation.run ~strategy ~availability ~rng:(Rng.create 7)
           ~nodes:(scripted ()) ~max_slots:30 ())
          .Emulation.counters
      in
      check_counters
        (Printf.sprintf "scripted counters: engine = emulation(%s)" sname)
        engine emu)
    [ (Emulation.Decay, "decay"); (Emulation.Csma, "csma") ]

let () =
  Alcotest.run "determinism"
    [
      ( "differential",
        [
          Alcotest.test_case "engine = reference (randomized)" `Quick
            test_engine_matches_reference;
          Alcotest.test_case "emulation = reference (randomized)" `Quick
            test_emulation_matches_reference;
          Alcotest.test_case "workload machines: engine = reference" `Quick
            test_workload_engine_matches_reference;
        ] );
      ( "canonical-order",
        [
          Alcotest.test_case "wins ascend within a slot" `Quick
            test_wins_in_canonical_order;
        ] );
      ( "seed-stability",
        [
          Alcotest.test_case "traces byte-equal across --jobs 1/2/8" `Quick
            test_traces_identical_across_jobs;
          Alcotest.test_case "repeat runs byte-equal" `Quick
            test_repeat_runs_byte_equal;
          Alcotest.test_case "workload traces byte-equal across --jobs 1/2/8"
            `Quick test_workload_traces_across_jobs;
        ] );
      ( "emulated-counters",
        [
          Alcotest.test_case "run_emulated counters are real" `Quick
            test_emulated_counters_real;
          Alcotest.test_case "scripted counters: engine = emulation" `Quick
            test_counters_parity_engine_vs_emulation;
        ] );
    ]
