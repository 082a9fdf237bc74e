(* Trace-driven regression tests: run COGCAST and COGCOMP (engine-backed and
   raw-radio-emulated) at several (n, c, k) points with tracing on, and
   require every Trace.Check invariant to hold on the recorded stream. A
   mutation test corrupts a healthy trace and requires the checker to fire,
   so the invariants are known to be non-vacuous.

   When an invariant check fails, the offending trace is written to
   trace_failure_<name>.jsonl next to the test binary so CI can upload it
   as an artifact. *)

module Rng = Crn_prng.Rng
module Trace = Crn_radio.Trace
module Topology = Crn_channel.Topology
module Cogcast = Crn_core.Cogcast
module Cogcomp = Crn_core.Cogcomp
module Aggregate = Crn_core.Aggregate

let seed = Prop.env_seed ()

let sanitize name =
  String.map (fun ch -> match ch with 'a' .. 'z' | '0' .. '9' -> ch | _ -> '_')
    (String.lowercase_ascii name)

(* Require a clean bill from every checker; dump the trace for post-mortem
   (and CI artifact upload) before failing. *)
let assert_clean ~name tr =
  match Trace.Check.all tr with
  | [] -> ()
  | violations ->
      let path = Printf.sprintf "trace_failure_%s.jsonl" (sanitize name) in
      Trace.write_jsonl ~path tr;
      Alcotest.failf "%s: %d invariant violation(s), trace dumped to %s; first: %s"
        name (List.length violations) path
        (Format.asprintf "%a" Trace.Check.pp_violation (List.hd violations))

let points = [ (5, 3, 1); (16, 8, 2); (24, 10, 3); (64, 16, 4) ]

(* --- COGCAST ------------------------------------------------------------ *)

let test_cogcast_invariants () =
  List.iteri
    (fun i (n, c, k) ->
      List.iter
        (fun kind ->
          let rng = Rng.create (seed + i) in
          let assignment = Topology.generate kind rng { Topology.n; c; k } in
          let tr = Trace.create () in
          let r = Cogcast.run_static ~trace:tr ~source:0 ~assignment ~k ~rng () in
          let name =
            Printf.sprintf "cogcast %s n=%d c=%d k=%d" (Topology.kind_name kind) n c k
          in
          assert_clean ~name tr;
          (* The trace's tree edges must agree with the result. *)
          let informs =
            Trace.fold
              (fun acc ev -> match ev with Trace.Informed _ -> acc + 1 | _ -> acc)
              0 tr
          in
          Alcotest.(check int)
            (name ^ ": informed events")
            (r.Cogcast.informed_count - 1)
            informs)
        [ Topology.Shared_core; Topology.Shared_plus_random ])
    points

let decay_emulation =
  Crn_radio.Runner.Emulation { strategy = Crn_radio.Emulation.Decay; session_cap = None }

let test_cogcast_emulated_invariants () =
  List.iteri
    (fun i (n, c, k) ->
      let rng = Rng.create (seed + 100 + i) in
      let assignment =
        Topology.generate Topology.Shared_plus_random rng { Topology.n; c; k }
      in
      let availability = Crn_channel.Dynamic.static assignment in
      let tr = Trace.create () in
      let max_slots = Crn_core.Complexity.cogcast_slots ~n ~c ~k () in
      let _r =
        Cogcast.run ~backend:decay_emulation ~trace:tr ~source:0 ~availability
          ~rng ~max_slots ()
      in
      let name = Printf.sprintf "cogcast emulated n=%d c=%d k=%d" n c k in
      assert_clean ~name tr;
      (* The emulation must have recorded contention sessions. *)
      let sessions =
        Trace.fold
          (fun acc ev -> match ev with Trace.Session _ -> acc + 1 | _ -> acc)
          0 tr
      in
      if sessions = 0 then Alcotest.failf "%s: no Session events recorded" name)
    points

(* --- COGCOMP ------------------------------------------------------------ *)

let run_cogcomp ~emulated ~n ~c ~k ~rng tr =
  let assignment =
    Topology.generate Topology.Shared_plus_random rng { Topology.n; c; k }
  in
  let values = Array.init n (fun v -> v + 1) in
  let backend = if emulated then decay_emulation else Crn_radio.Runner.Engine in
  Cogcomp.run ~backend ~trace:tr ~monoid:Aggregate.sum ~values ~source:0
    ~assignment ~k ~rng ()

let test_cogcomp_invariants () =
  List.iteri
    (fun i (n, c, k) ->
      let rng = Rng.create (seed + 200 + i) in
      let tr = Trace.create () in
      let r = run_cogcomp ~emulated:false ~n ~c ~k ~rng tr in
      let name = Printf.sprintf "cogcomp n=%d c=%d k=%d" n c k in
      Alcotest.(check bool) (name ^ ": complete") true r.Cogcomp.complete;
      Alcotest.(check (option int))
        (name ^ ": sum")
        (Some (n * (n + 1) / 2))
        r.Cogcomp.root_value;
      assert_clean ~name tr;
      (* Phase markers present and in protocol order. *)
      let phases =
        List.rev
          (Trace.fold
             (fun acc ev ->
               match ev with Trace.Phase { name } -> name :: acc | _ -> acc)
             [] tr)
      in
      Alcotest.(check (list string))
        (name ^ ": phase markers")
        [ "cogcast"; "cogcomp-phase2"; "cogcomp-phase3"; "cogcomp-phase4"; "cogcomp-done" ]
        phases;
      (* Mediators recorded in the trace match the result. *)
      let meds =
        List.rev
          (Trace.fold
             (fun acc ev -> match ev with Trace.Mediator { node } -> node :: acc | _ -> acc)
             [] tr)
      in
      Alcotest.(check (list int)) (name ^ ": mediators") r.Cogcomp.mediators meds)
    points

let test_cogcomp_emulated_invariants () =
  (* Emulated COGCOMP is expensive; one moderate point suffices — every
     phase still crosses the raw-radio path. *)
  let n, c, k = (16, 8, 2) in
  let rng = Rng.create (seed + 300) in
  let tr = Trace.create () in
  let r = run_cogcomp ~emulated:true ~n ~c ~k ~rng tr in
  let name = Printf.sprintf "cogcomp emulated n=%d c=%d k=%d" n c k in
  Alcotest.(check bool) (name ^ ": complete") true r.Cogcomp.complete;
  assert_clean ~name tr

(* --- mutation: the checkers must fire on corrupted traces --------------- *)

let healthy_trace () =
  let rng = Rng.create (seed + 400) in
  let assignment =
    Topology.generate Topology.Shared_plus_random rng { Topology.n = 16; c = 8; k = 2 }
  in
  let tr = Trace.create () in
  ignore (Cogcast.run_static ~trace:tr ~source:0 ~assignment ~k:2 ~rng ());
  tr

let test_mutation_one_winner () =
  let tr = healthy_trace () in
  assert_clean ~name:"mutation baseline" tr;
  (* Duplicate the first Win with a different winner: two winners on one
     channel in one slot must trip the one-winner checker. *)
  let events = Trace.to_list tr in
  let mutated =
    List.concat_map
      (fun ev ->
        match ev with
        | Trace.Win { slot; channel; winner; contenders } ->
            [ ev; Trace.Win { slot; channel; winner = winner + 1; contenders } ]
        | _ -> [ ev ])
      events
  in
  if List.length mutated = List.length events then
    Alcotest.fail "healthy trace had no Win event to corrupt";
  let violations = Trace.Check.one_winner (Trace.of_list mutated) in
  if violations = [] then
    Alcotest.fail "one-winner checker accepted a trace with duplicated winners"

let test_mutation_informed_tree () =
  let tr = healthy_trace () in
  (* Point one tree edge at a node that was never informed before it: the
     informer-precedes-informee checker must fire. *)
  let events = Trace.to_list tr in
  let nodes_informed =
    List.filter_map
      (function Trace.Informed { node; _ } -> Some node | _ -> None)
      events
  in
  let never_parent =
    (* A node informed last cannot legitimately be anyone's parent earlier. *)
    List.nth nodes_informed (List.length nodes_informed - 1)
  in
  let corrupted = ref false in
  let mutated =
    List.map
      (fun ev ->
        match ev with
        | Trace.Informed { slot; node; label; _ }
          when (not !corrupted) && node <> never_parent ->
            corrupted := true;
            Trace.Informed { slot; node; parent = never_parent; label }
        | _ -> ev)
      events
  in
  if not !corrupted then Alcotest.fail "no Informed event to corrupt";
  let violations = Trace.Check.informed_tree (Trace.of_list mutated) in
  if violations = [] then
    Alcotest.fail "informed-tree checker accepted a forward-in-time parent edge"

let test_mutation_phase4 () =
  let rng = Rng.create (seed + 500) in
  let tr = Trace.create () in
  ignore (run_cogcomp ~emulated:false ~n:16 ~c:8 ~k:2 ~rng tr);
  assert_clean ~name:"mutation phase4 baseline" tr;
  (* Drop one Value_delivered: a complete run missing a delivery violates
     payload conservation. *)
  let dropped = ref false in
  let mutated =
    List.filter
      (fun ev ->
        match ev with
        | Trace.Value_delivered _ when not !dropped ->
            dropped := true;
            false
        | _ -> true)
      (Trace.to_list tr)
  in
  if not !dropped then Alcotest.fail "no Value_delivered event to drop";
  let violations = Trace.Check.phase4_drain (Trace.of_list mutated) in
  if violations = [] then
    Alcotest.fail "phase4-drain checker accepted a lost value on a complete run"

let healthy_cogcomp_trace () =
  let rng = Rng.create (seed + 900) in
  let tr = Trace.create () in
  ignore (run_cogcomp ~emulated:false ~n:16 ~c:8 ~k:2 ~rng tr);
  tr

let test_mutation_exactly_once () =
  let tr = healthy_cogcomp_trace () in
  assert_clean ~name:"mutation exactly-once baseline" tr;
  (* Replay one Value_delivered three slots later — what a receiver without
     sender-id dedup would record when folding a retry twice. The
     exactly-once checker must fire even though both events are backed by
     an earlier matching send. *)
  let dup = ref false in
  let events =
    List.concat_map
      (fun ev ->
        match ev with
        | Trace.Value_delivered { slot; sender; receiver; r } when not !dup ->
            dup := true;
            [ ev; Trace.Value_delivered { slot = slot + 3; sender; receiver; r } ]
        | _ -> [ ev ])
      (Trace.to_list tr)
  in
  if not !dup then Alcotest.fail "no Value_delivered event to duplicate";
  if Trace.Check.exactly_once_drain (Trace.of_list events) = [] then
    Alcotest.fail "exactly-once checker accepted a double-counted value"

let test_phase4_down_relaxation () =
  let tr = healthy_cogcomp_trace () in
  (* Defer one delivery by a slot — a late ack. On a fault-free trace the
     strict same-step send/delivery matching must reject it... *)
  let shifted = ref false in
  let events =
    List.map
      (fun ev ->
        match ev with
        | Trace.Value_delivered { slot; sender; receiver; r } when not !shifted ->
            shifted := true;
            Trace.Value_delivered { slot = slot + 1; sender; receiver; r }
        | _ -> ev)
      (Trace.to_list tr)
  in
  if not !shifted then Alcotest.fail "no Value_delivered event to defer";
  if Trace.Check.phase4_drain (Trace.of_list events) = [] then
    Alcotest.fail "strict phase4-drain accepted a late ack on a fault-free trace";
  (* ...but a single Down event marks the trace faulty, and the same late
     ack becomes legitimate: a node that missed its echo slot acks late. *)
  let faulty = Trace.Down { slot = 0; node = 1 } :: events in
  (match Trace.Check.phase4_drain (Trace.of_list faulty) with
  | [] -> ()
  | viol :: _ ->
      Alcotest.failf "down-aware phase4-drain rejected a legitimate late ack: %s"
        (Format.asprintf "%a" Trace.Check.pp_violation viol));
  (* The relaxed matcher is not vacuous: a delivery naming a cluster its
     sender never sent still fires on the faulty trace. *)
  let bogus = ref false in
  let corrupt =
    List.map
      (fun ev ->
        match ev with
        | Trace.Value_delivered { slot; sender; receiver; r } when not !bogus ->
            bogus := true;
            Trace.Value_delivered { slot; sender; receiver; r = r + 1000 }
        | _ -> ev)
      faulty
  in
  if Trace.Check.phase4_drain (Trace.of_list corrupt) = [] then
    Alcotest.fail
      "down-aware phase4-drain accepted a delivery with no matching send"

(* --- JSONL round-trip --------------------------------------------------- *)

let test_jsonl_roundtrip () =
  let rng = Rng.create (seed + 600) in
  let tr = Trace.create () in
  ignore (run_cogcomp ~emulated:false ~n:16 ~c:8 ~k:2 ~rng tr);
  match Trace.of_jsonl (Trace.to_jsonl tr) with
  | Error msg -> Alcotest.failf "of_jsonl rejected its own output: %s" msg
  | Ok tr' ->
      Alcotest.(check int) "length" (Trace.length tr) (Trace.length tr');
      if Trace.to_list tr <> Trace.to_list tr' then
        Alcotest.fail "round-tripped events differ";
      (* And the invariants hold on the decoded side too. *)
      assert_clean ~name:"jsonl roundtrip" tr'

(* The adversary-laboratory provenance events (recorded by the arming
   layer, never by engines) must survive the wire format too. *)
let test_jsonl_roundtrip_adversary_events () =
  let tr = Trace.create () in
  Trace.record tr (Trace.Adversary { name = "reactive"; budget = 1 });
  Trace.record tr (Trace.Reassigned { slot = 3; nodes_changed = 7 });
  Trace.record tr (Trace.Adversary { name = "dynamic:reshuffle"; budget = 0 });
  match Trace.of_jsonl (Trace.to_jsonl tr) with
  | Error msg -> Alcotest.failf "of_jsonl rejected adversary events: %s" msg
  | Ok tr' ->
      if Trace.to_list tr <> Trace.to_list tr' then
        Alcotest.fail "round-tripped adversary events differ";
      (* Checkers must treat the new events as inert provenance. *)
      assert_clean ~name:"adversary events" tr'

let test_jsonl_rejects_garbage () =
  (match Trace.of_jsonl "{\"ev\":\"win\",\"slot\":0}\n" with
  | Ok _ -> Alcotest.fail "accepted a win event with missing fields"
  | Error _ -> ());
  match Trace.of_jsonl "not json\n" with
  | Ok _ -> Alcotest.fail "accepted a non-JSON line"
  | Error _ -> ()

(* --- zero-cost-when-disabled -------------------------------------------- *)

let test_counters_unchanged_by_tracing () =
  (* The same seeded run with and without a trace attached must produce
     identical results and counters (tracing observes, never perturbs). *)
  let go trace =
    let rng = Rng.create (seed + 700) in
    let assignment =
      Topology.generate Topology.Shared_plus_random rng
        { Topology.n = 32; c = 12; k = 3 }
    in
    Cogcast.run_static ?trace ~source:0 ~assignment ~k:3 ~rng ()
  in
  let plain = go None in
  let traced = go (Some (Trace.create ())) in
  Alcotest.(check int) "slots_run" plain.Cogcast.slots_run traced.Cogcast.slots_run;
  Alcotest.(check int)
    "wins"
    plain.Cogcast.counters.Trace.Counters.wins
    traced.Cogcast.counters.Trace.Counters.wins;
  Alcotest.(check int)
    "deliveries"
    plain.Cogcast.counters.Trace.Counters.deliveries
    traced.Cogcast.counters.Trace.Counters.deliveries

(* --- metrics registry ---------------------------------------------------- *)

let test_metrics_from_trace () =
  let rng = Rng.create (seed + 800) in
  let tr = Trace.create () in
  let r = run_cogcomp ~emulated:false ~n:16 ~c:8 ~k:2 ~rng tr in
  let module Reg = Crn_radio.Metrics.Registry in
  let reg = Reg.create () in
  Reg.observe_trace reg tr;
  Alcotest.(check int)
    "slots counter = protocol total"
    r.Cogcomp.total_slots
    (Reg.value (Reg.counter reg "slots"));
  Alcotest.(check int)
    "informs = n-1"
    15
    (Reg.value (Reg.counter reg "informs"));
  let wins = Reg.value (Reg.counter reg "wins") in
  if wins <= 0 then Alcotest.fail "no wins counted";
  if Reg.samples (Reg.histogram reg "win_contenders") <> wins then
    Alcotest.fail "win_contenders histogram disagrees with wins counter";
  (* Export shape: counters and histograms objects are present. *)
  let json = Reg.to_json reg in
  (match Crn_stats.Json.member "counters" json with
  | Some (Crn_stats.Json.Obj _) -> ()
  | _ -> Alcotest.fail "metrics JSON lacks counters object");
  match Crn_stats.Json.member "histograms" json with
  | Some (Crn_stats.Json.Obj _) -> ()
  | _ -> Alcotest.fail "metrics JSON lacks histograms object"

let () =
  Alcotest.run "trace"
    [
      ( "cogcast",
        [
          Alcotest.test_case "invariants hold" `Quick test_cogcast_invariants;
          Alcotest.test_case "emulated invariants hold" `Quick
            test_cogcast_emulated_invariants;
        ] );
      ( "cogcomp",
        [
          Alcotest.test_case "invariants hold" `Quick test_cogcomp_invariants;
          Alcotest.test_case "emulated invariants hold" `Slow
            test_cogcomp_emulated_invariants;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "one-winner fires" `Quick test_mutation_one_winner;
          Alcotest.test_case "informed-tree fires" `Quick test_mutation_informed_tree;
          Alcotest.test_case "phase4-drain fires" `Quick test_mutation_phase4;
          Alcotest.test_case "exactly-once fires" `Quick test_mutation_exactly_once;
          Alcotest.test_case "down-aware relaxation" `Quick test_phase4_down_relaxation;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "adversary events round-trip" `Quick
            test_jsonl_roundtrip_adversary_events;
          Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage;
        ] );
      ( "observability",
        [
          Alcotest.test_case "tracing does not perturb" `Quick
            test_counters_unchanged_by_tracing;
          Alcotest.test_case "metrics derived from trace" `Quick
            test_metrics_from_trace;
        ] );
    ]
