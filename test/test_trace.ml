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

(* The root's aggregate where the run claims it complete. *)
let root r = if r.Cogcomp.complete then Some r.Cogcomp.root_value else None

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
        (root r);
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

(* --- the single-pass checkers against the list oracle ------------------- *)

module Protocol = Crn_proto.Protocol
module Registry = Crn_proto.Registry
module Faults = Crn_radio.Faults

let registry_trace ?faults ?load name ~n ~c ~k rng =
  let assignment = Topology.generate Topology.Shared_plus_random rng { Topology.n; c; k } in
  let tr = Trace.create () in
  ignore
    (Protocol.run (Registry.find_exn name)
       (Protocol.env ?faults ?load ~trace:tr ~k
          ~availability:(Crn_channel.Dynamic.static assignment) ~rng ()));
  tr

(* The healthy traces the property mutates, with the node count and
   spectrum size that bound its rewritten ids. *)
let oracle_traces =
  lazy
    (let load = { Protocol.rate = 0.3; arrivals = Protocol.Poisson; rumors = 3 } in
     let naps =
       Faults.spare (Faults.random_naps ~seed:(Int64.of_int (seed + 5)) ~rate:0.05) ~node:0
     in
     let cogcast () =
       let rng = Rng.create (seed + 1000) in
       let assignment =
         Topology.generate Topology.Shared_plus_random rng { Topology.n = 24; c = 8; k = 2 }
       in
       let tr = Trace.create () in
       ignore (Cogcast.run_static ~trace:tr ~source:0 ~assignment ~k:2 ~rng ());
       tr
     in
     let cogcomp ~emulated n =
       let tr = Trace.create () in
       ignore (run_cogcomp ~emulated ~n ~c:6 ~k:2 ~rng:(Rng.create (seed + 1001)) tr);
       tr
     in
     List.map
       (fun (label, tr) ->
         let n, channels =
           match Trace.get tr 0 with
           | Trace.Meta { n; channels; _ } -> (n, channels)
           | _ -> Alcotest.failf "%s: trace does not open with Meta" label
         in
         assert_clean ~name:("oracle baseline " ^ label) tr;
         (label, n, channels, Array.of_list (Trace.to_list tr)))
       [
         ("cogcast", cogcast ());
         ("cogcomp engine", cogcomp ~emulated:false 16);
         ("cogcomp decay", cogcomp ~emulated:true 8);
         ( "cogcomp_robust naps:0.05+spare:0",
           registry_trace ~faults:naps "cogcomp_robust" ~n:16 ~c:6 ~k:2
             (Rng.create (seed + 1002)) );
         ("gossip", registry_trace ~load "gossip" ~n:12 ~c:6 ~k:2 (Rng.create (seed + 1003)));
         ( "push_sum",
           registry_trace ~load "push_sum" ~n:12 ~c:6 ~k:2 (Rng.create (seed + 1004)) );
       ])

type case = { label : string; mutation : string; events : Trace.event array }

(* The fields a mutation may rewrite, each with a draw of a new in-range
   value; the event keeps its slot and its place in the stream. *)
let rewrites ~n ~channels ev =
  let node rng = Rng.int rng n and chan rng = Rng.int rng channels in
  let count c rng = Rng.int rng (c + 3) and near r rng = r + Rng.int rng 5 - 2 in
  match ev with
  | Trace.Win w ->
      [
        ("winner", fun rng -> Trace.Win { w with winner = node rng });
        ("channel", fun rng -> Trace.Win { w with channel = chan rng });
        ("contenders", fun rng -> Trace.Win { w with contenders = count w.contenders rng });
      ]
  | Trace.Deliver d ->
      [
        ("sender", fun rng -> Trace.Deliver { d with sender = node rng });
        ("receiver", fun rng -> Trace.Deliver { d with receiver = node rng });
        ("channel", fun rng -> Trace.Deliver { d with channel = chan rng });
      ]
  | Trace.Decide d -> [ ("channel", fun rng -> Trace.Decide { d with channel = chan rng }) ]
  | Trace.Silent s -> [ ("channel", fun rng -> Trace.Silent { s with channel = chan rng }) ]
  | Trace.Jam j -> [ ("channel", fun rng -> Trace.Jam { j with channel = chan rng }) ]
  | Trace.Session s ->
      [
        ("channel", fun rng -> Trace.Session { s with channel = chan rng });
        ("contenders", fun rng -> Trace.Session { s with contenders = count s.contenders rng });
      ]
  | Trace.Informed i -> [ ("parent", fun rng -> Trace.Informed { i with parent = node rng }) ]
  | Trace.Sent_value s -> [ ("r", fun rng -> Trace.Sent_value { s with r = near s.r rng }) ]
  | Trace.Value_delivered d ->
      [
        ("sender", fun rng -> Trace.Value_delivered { d with sender = node rng });
        ("receiver", fun rng -> Trace.Value_delivered { d with receiver = node rng });
        ("r", fun rng -> Trace.Value_delivered { d with r = near d.r rng });
      ]
  | Trace.Rumor_delivered d ->
      [ ("parent", fun rng -> Trace.Rumor_delivered { d with parent = node rng }) ]
  | _ -> []

let duplicable = function
  | Trace.Win _ | Trace.Deliver _ | Trace.Value_delivered _ | Trace.Rumor_delivered _ -> true
  | _ -> false

(* Phase markers stay: dropping one merges two segments, whose restarted
   slot numbers the single pass reports as non-adjacent slots (see the
   adjacency tests below) where the oracle regroups them. *)
let is_phase = function Trace.Phase _ -> true | _ -> false

let kind ev =
  match Trace.json_of_event ev with
  | Crn_stats.Json.Obj (("ev", Crn_stats.Json.String k) :: _) -> k
  | _ -> ""

(* An event satisfying [pred]: first a kind, uniformly among the kinds
   that have one, then an event of that kind — so the rare kinds (Meta,
   Informed, Sent_value) are hit as often as the Decides. *)
let pick rng events pred =
  let idx = List.filter (fun i -> pred events.(i)) (List.init (Array.length events) Fun.id) in
  let kinds = List.sort_uniq compare (List.map (fun i -> kind events.(i)) idx) in
  let k = List.nth kinds (Rng.int rng (List.length kinds)) in
  let idx = List.filter (fun i -> kind events.(i) = k) idx in
  List.nth idx (Rng.int rng (List.length idx))

let mutate rng (label, n, channels, events) =
  let splice i f =
    Array.concat
      [ Array.sub events 0 i; f; Array.sub events (i + 1) (Array.length events - i - 1) ]
  in
  let show_ev ev = Crn_stats.Json.to_string ~compact:true (Trace.json_of_event ev) in
  let ev_name i = Printf.sprintf "event %d (%s)" i (show_ev events.(i)) in
  match Rng.int rng 3 with
  | 0 ->
      let i = pick rng events (fun ev -> not (is_phase ev)) in
      { label; mutation = "drop " ^ ev_name i; events = splice i [||] }
  | 1 ->
      let i = pick rng events duplicable in
      {
        label;
        mutation = "duplicate " ^ ev_name i;
        events = splice i [| events.(i); events.(i) |];
      }
  | _ ->
      let i = pick rng events (fun ev -> rewrites ~n ~channels ev <> []) in
      let fields = rewrites ~n ~channels events.(i) in
      let field, draw = List.nth fields (Rng.int rng (List.length fields)) in
      let ev = draw rng in
      {
        label;
        mutation =
          Printf.sprintf "rewrite %s of %s to %s" field (ev_name i) (show_ev ev);
        events = splice i [| ev |];
      }

(* Shrink by cutting runs of events, halving the run length down to one.
   Meta and Phase events stay, so a shrunk trace keeps its id ranges and
   its segments; a trace whose Meta was the dropped event is not shrunk,
   since its ranges follow its length. *)
let shrink_case case =
  let keep = function Trace.Meta _ | Trace.Phase _ -> true | _ -> false in
  let len = Array.length case.events in
  if not (Array.exists (function Trace.Meta _ -> true | _ -> false) case.events) then Seq.empty
  else
    let rec sizes s () = if s < 1 then Seq.Nil else Seq.Cons (s, sizes (s / 2)) in
    Seq.concat_map
      (fun size ->
        Seq.filter_map
          (fun chunk ->
            let lo = chunk * size in
            let events =
              List.filteri
                (fun i ev -> i < lo || i >= lo + size || keep ev)
                (Array.to_list case.events)
            in
            if List.length events = len then None
            else Some { case with events = Array.of_list events })
          (Seq.init ((len + size - 1) / size) Fun.id))
      (sizes (len / 2))

let print_case case =
  let len = Array.length case.events in
  Printf.sprintf "%s, %s, %d events%s" case.label case.mutation len
    (if len > 60 then ""
     else
       ":\n"
       ^ String.concat "\n"
           (Array.to_list
              (Array.map
                 (fun ev -> Crn_stats.Json.to_string ~compact:true (Trace.json_of_event ev))
                 case.events)))

let checker_pairs =
  [
    ("one_winner", Trace.Check.one_winner, Check_oracle.one_winner);
    ("informed_tree", Trace.Check.informed_tree, Check_oracle.informed_tree);
    ("phase4_drain", Trace.Check.phase4_drain, Check_oracle.phase4_drain);
    ("exactly_once_drain", Trace.Check.exactly_once_drain, Check_oracle.exactly_once_drain);
    ("rumor_causality", Trace.Check.rumor_causality, Check_oracle.rumor_causality);
  ]

let show vs =
  "[" ^ String.concat "; " (List.map (Format.asprintf "%a" Trace.Check.pp_violation) vs) ^ "]"

(* The first checker whose violations, as a sorted list, differ from the
   oracle's. *)
let oracle_difference tr =
  List.find_map
    (fun (name, fresh, oracle) ->
      let got = List.sort compare (fresh tr) and want = List.sort compare (oracle tr) in
      if got = want then None
      else Some (Printf.sprintf "%s: checker %s, oracle %s" name (show got) (show want)))
    checker_pairs

(* Paths no single mutation of the healthy traces reaches: a delivery
   echoing the older of a sender's sends in two consecutive slots, a
   parent cycle with a node hanging off it, chains that break inside and
   outside the node range, and a failed contention session. *)
let hand_cases =
  let meta = Trace.Meta { n = 5; channels = 2; c = 1; source = 0 } in
  let informed slot node parent = Trace.Informed { slot; node; parent; label = 0 } in
  [
    ( "consecutive sends",
      [
        meta;
        Trace.Phase { name = "cogcomp-phase4" };
        Trace.Sent_value { slot = 3; node = 1; r = 2 };
        Trace.Sent_value { slot = 4; node = 1; r = 5 };
        Trace.Value_delivered { slot = 4; sender = 1; receiver = 0; r = 2 };
        Trace.Value_delivered { slot = 5; sender = 1; receiver = 0; r = 5 };
      ] );
    ( "parent cycle",
      [
        meta;
        Trace.Phase { name = "cogcast" };
        informed 0 1 0;
        informed 1 2 3;
        informed 2 3 2;
        informed 3 4 3;
      ] );
    ("broken chain", [ meta; Trace.Phase { name = "cogcast" }; informed 1 2 3; informed 2 4 2 ]);
    ("parent past n", [ meta; Trace.Phase { name = "cogcast" }; informed 1 2 7; informed 2 4 2 ]);
    ( "failed session",
      [
        meta;
        Trace.Phase { name = "cogcast" };
        Trace.Decide { slot = 0; node = 1; channel = 0; label = 0; tx = true };
        Trace.Decide { slot = 0; node = 2; channel = 0; label = 0; tx = true };
        Trace.Session { slot = 0; channel = 0; contenders = 2; rounds = 9; ok = false };
        Trace.Decide { slot = 1; node = 1; channel = 1; label = 0; tx = true };
      ] );
  ]

let test_oracle_differential () =
  List.iter
    (fun (label, events) ->
      match oracle_difference (Trace.of_list events) with
      | None -> ()
      | Some why -> Alcotest.failf "%s: %s" label why)
    hand_cases;
  let traces = Array.of_list (Lazy.force oracle_traces) in
  let firing = ref 0 and cases = ref 0 in
  let gen =
    {
      Prop.sample = (fun rng -> mutate rng traces.(Rng.int rng (Array.length traces)));
      shrink = shrink_case;
      print = print_case;
    }
  in
  Prop.check ~count:400 ~name:"single-pass checkers = list oracle" gen (fun case ->
      let tr = Trace.of_list (Array.to_list case.events) in
      incr cases;
      if Trace.Check.all tr <> [] then incr firing;
      oracle_difference tr);
  (* Non-vacuous: a good share of the mutations must break an invariant. *)
  if 4 * !firing < !cases then
    Alcotest.failf "only %d of %d mutated traces drew a violation" !firing !cases

(* --- the fold's two assumptions are checked ----------------------------- *)

let details vs = List.map (fun x -> x.Trace.Check.detail) vs

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let expect_detail ~what sub vs =
  if not (List.exists (fun d -> contains d sub) (details vs)) then
    Alcotest.failf "%s: no violation mentions %S; got %s" what sub (show vs)

let slot_of = function
  | Trace.Decide { slot; _ } | Trace.Win { slot; _ } | Trace.Deliver { slot; _ } -> Some slot
  | _ -> None

let test_adjacency_checked () =
  let events = Trace.to_list (healthy_trace ()) in
  (* Move slot 0's first Decide after slot 1's first Decide: slot 0's
     events are no longer one block. *)
  let moved = ref None in
  let without =
    List.filter
      (fun ev ->
        match ev with
        | Trace.Decide { slot = 0; _ } when !moved = None ->
            moved := Some ev;
            false
        | _ -> true)
      events
  in
  let ev = Option.get !moved in
  let placed = ref false in
  let mutated =
    List.concat_map
      (fun e ->
        match e with
        | Trace.Decide { slot = 1; _ } when not !placed ->
            placed := true;
            [ e; ev ]
        | _ -> [ e ])
      without
  in
  if not !placed then Alcotest.fail "healthy trace has no slot 1";
  let vs = Trace.Check.one_winner (Trace.of_list mutated) in
  expect_detail ~what:"a Decide moved into the next slot" "must be adjacent" vs;
  List.iter
    (fun x -> Alcotest.(check string) "invariant" "one-winner" x.Trace.Check.invariant)
    vs;
  (* Dropping the marker between two phases joins their segments; the
     second phase's slots restart at 0 and resume below the first's. *)
  let rng = Rng.create (seed + 1100) in
  let tr = Trace.create () in
  ignore (run_cogcomp ~emulated:false ~n:16 ~c:8 ~k:2 ~rng tr);
  let joined =
    List.filter
      (function Trace.Phase { name = "cogcomp-phase2" } -> false | _ -> true)
      (Trace.to_list tr)
  in
  expect_detail ~what:"a dropped Phase marker" "must be adjacent"
    (Trace.Check.one_winner (Trace.of_list joined));
  (* The healthy traces keep slot order. *)
  let slots = List.filter_map slot_of events in
  if List.sort compare slots <> slots then Alcotest.fail "healthy slots not ascending"

let test_one_action_per_node_checked () =
  let events = Trace.to_list (healthy_trace ()) in
  let dup = ref false in
  let twice =
    List.concat_map
      (fun ev ->
        match ev with
        | Trace.Decide _ when not !dup ->
            dup := true;
            [ ev; ev ]
        | _ -> [ ev ])
      events
  in
  expect_detail ~what:"a node deciding twice" "more than one Decide, Jam or Down"
    (Trace.Check.one_winner (Trace.of_list twice));
  let downed = ref false in
  let down_and_decide =
    List.concat_map
      (fun ev ->
        match ev with
        | Trace.Decide { slot; node; _ } when not !downed ->
            downed := true;
            [ Trace.Down { slot; node }; ev ]
        | _ -> [ ev ])
      events
  in
  expect_detail ~what:"a node down and deciding in one slot"
    "more than one Decide, Jam or Down"
    (Trace.Check.one_winner (Trace.of_list down_and_decide))

(* --- ids outside the header's range -------------------------------------- *)

let rewrite_first pred f events =
  let hit = ref false in
  let out =
    List.map
      (fun ev ->
        if (not !hit) && pred ev then begin
          hit := true;
          f ev
        end
        else ev)
      events
  in
  if not !hit then Alcotest.fail "no event to rewrite";
  Trace.of_list out

let expect_bad_id ~what checker sub tr =
  match checker tr with
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  | vs -> expect_detail ~what sub vs

let test_bad_ids_one_winner () =
  let events = Trace.to_list (healthy_trace ()) in
  expect_bad_id ~what:"receiver past n" Trace.Check.one_winner "receiver 21 out of range [0,16)"
    (rewrite_first
       (function Trace.Deliver _ -> true | _ -> false)
       (function Trace.Deliver d -> Trace.Deliver { d with receiver = 21 } | ev -> ev)
       events);
  expect_bad_id ~what:"negative channel" Trace.Check.one_winner "channel -1 out of range"
    (rewrite_first
       (function Trace.Decide _ -> true | _ -> false)
       (function Trace.Decide d -> Trace.Decide { d with channel = -1 } | ev -> ev)
       events);
  expect_bad_id ~what:"winner at max_int" Trace.Check.one_winner
    (Printf.sprintf "winner %d out of range" max_int)
    (rewrite_first
       (function Trace.Win _ -> true | _ -> false)
       (function Trace.Win w -> Trace.Win { w with winner = max_int } | ev -> ev)
       events)

let test_bad_ids_informed_tree () =
  let events = Trace.to_list (healthy_trace ()) in
  let informed = function Trace.Informed _ -> true | _ -> false in
  expect_bad_id ~what:"negative parent" Trace.Check.informed_tree "parent -4 of node"
    (rewrite_first informed
       (function Trace.Informed i -> Trace.Informed { i with parent = -4 } | ev -> ev)
       events);
  expect_bad_id ~what:"node at n" Trace.Check.informed_tree "informed node 16 out of range"
    (rewrite_first informed
       (function Trace.Informed i -> Trace.Informed { i with node = 16 } | ev -> ev)
       events)

let cogcomp_events () = Trace.to_list (healthy_cogcomp_trace ())

let test_bad_ids_phase4 () =
  expect_bad_id ~what:"negative sender" Trace.Check.phase4_drain "sender -7 out of range"
    (rewrite_first
       (function Trace.Value_delivered _ -> true | _ -> false)
       (function
         | Trace.Value_delivered d -> Trace.Value_delivered { d with sender = -7 } | ev -> ev)
       (cogcomp_events ()))

let test_bad_ids_exactly_once () =
  expect_bad_id ~what:"sender past n" Trace.Check.exactly_once_drain "sender 116 out of range"
    (rewrite_first
       (function Trace.Value_delivered _ -> true | _ -> false)
       (function
         | Trace.Value_delivered d -> Trace.Value_delivered { d with sender = 116 } | ev -> ev)
       (cogcomp_events ()))

let test_bad_ids_rumor_causality () =
  let tr =
    registry_trace
      ~load:{ Protocol.rate = 0.3; arrivals = Protocol.Poisson; rumors = 3 }
      "gossip" ~n:12 ~c:6 ~k:2 (Rng.create (seed + 1200))
  in
  assert_clean ~name:"bad-id gossip baseline" tr;
  expect_bad_id ~what:"negative parent" Trace.Check.rumor_causality "parent -2 out of range"
    (rewrite_first
       (function Trace.Rumor_delivered _ -> true | _ -> false)
       (function
         | Trace.Rumor_delivered d -> Trace.Rumor_delivered { d with parent = -2 } | ev -> ev)
       (Trace.to_list tr))

(* A header range no array can hold — negative, or beyond
   Sys.max_array_length — is the one violation every checker that reads
   the header reports, instead of an Invalid_argument from sizing its
   tables. *)
let test_meta_header checker () =
  let events = Trace.to_list (healthy_trace ()) in
  List.iter
    (fun (what, n, channels, detail) ->
      let tr =
        rewrite_first
          (function Trace.Meta _ -> true | _ -> false)
          (function Trace.Meta m -> Trace.Meta { m with n; channels } | ev -> ev)
          events
      in
      match checker tr with
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
      | vs ->
          Alcotest.(check (list (pair string string)))
            what
            [ ("meta-header", detail) ]
            (List.map (fun x -> (x.Trace.Check.invariant, x.Trace.Check.detail)) vs))
    [
      ("negative n", -1, 8, "Meta header n -1 is negative");
      ("negative channels", 16, -3, "Meta header channels -3 is negative");
      ("n max_int", max_int, 8, Printf.sprintf "Meta header n %d is too large to allocate" max_int);
      ( "channels past the array limit",
        16,
        Sys.max_array_length + 1,
        Printf.sprintf "Meta header channels %d is too large to allocate"
          (Sys.max_array_length + 1) );
    ]

(* A header within Sys.max_array_length but beyond memory: one-winner's
   tables (8 PB at n = 2^50, more than the address space, so the allocation
   fails at once, touching no memory) are reported, not raised. *)
let test_meta_header_beyond_memory () =
  let n = 1 lsl 50 in
  let tr =
    rewrite_first
      (function Trace.Meta _ -> true | _ -> false)
      (function Trace.Meta m -> Trace.Meta { m with n; channels = 8 } | ev -> ev)
      (Trace.to_list (healthy_trace ()))
  in
  match Trace.Check.all tr with
  | exception e -> Alcotest.failf "n = 2^50 raised %s" (Printexc.to_string e)
  | vs ->
      Alcotest.(check (list string))
        "n = 2^50"
        [ Printf.sprintf "Meta header n %d, channels 8: too large to allocate" n ]
        (details vs)

(* Without a Meta header the ranges follow the trace's length: a healthy
   trace stripped of its header checks clean apart from the header the
   tree check needs, and a huge id is reported, not allocated for. *)
let test_headless_ranges () =
  let headless =
    List.filter (function Trace.Meta _ -> false | _ -> true) (Trace.to_list (healthy_trace ()))
  in
  Alcotest.(check (list string))
    "headless COGCAST trace" [ "trace has Informed events but no Meta header" ]
    (details (Trace.Check.all (Trace.of_list headless)));
  let tr =
    Trace.of_list
      [
        Trace.Phase { name = "x" };
        Trace.Decide { slot = 0; node = max_int; channel = max_int; label = 0; tx = true };
        Trace.Win { slot = 0; channel = 0; winner = max_int; contenders = 1 };
        Trace.Phase { name = "cogcomp-phase4" };
        Trace.Value_delivered { slot = 1; sender = max_int; receiver = 0; r = 0 };
        Trace.Injected { slot = 0; rumor = max_int; node = max_int };
      ]
  in
  match Trace.Check.all tr with
  | exception e -> Alcotest.failf "headless trace with huge ids raised %s" (Printexc.to_string e)
  | vs -> expect_detail ~what:"headless huge id" (Printf.sprintf "node %d out of range [0,6)" max_int) vs

(* --- deterministic order ------------------------------------------------- *)

let test_violation_order () =
  (* Every Win claims one contender too many: one violation per win, in
     slot order, and the same list after a JSONL round trip. *)
  let events =
    List.map
      (function
        | Trace.Win w -> Trace.Win { w with contenders = w.contenders + 1 } | ev -> ev)
      (Trace.to_list (healthy_trace ()))
  in
  let tr = Trace.of_list events in
  let vs = Trace.Check.all tr in
  let wins = List.length (List.filter (function Trace.Win _ -> true | _ -> false) events) in
  Alcotest.(check int) "one violation per win" wins (List.length vs);
  let slots = List.map (fun d -> Scanf.sscanf d "slot %d" Fun.id) (details vs) in
  if List.sort compare slots <> slots then Alcotest.fail "violations not in stream order";
  match Trace.of_jsonl (Trace.to_jsonl tr) with
  | Error msg -> Alcotest.failf "of_jsonl: %s" msg
  | Ok tr' ->
      if Trace.Check.all tr' <> vs then
        Alcotest.fail "a JSONL round trip changed the violation list"

(* --- allocation ---------------------------------------------------------- *)

(* Check.all's state is a handful of node- and channel-indexed int arrays
   and per-slot stacks, allocated once; stepping an event allocates
   nothing. On a clean COGCAST trace at n = 20000 (about 6 events per
   node) that measures 2.8 words per event; the bound leaves 40 % over. *)
let words_per_event_bound = 4.0

let test_check_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let rng = Rng.create (seed + 1300) in
    let assignment =
      Topology.shared_plus_random rng { Topology.n = 20_000; c = 16; k = 4 }
    in
    let tr = Trace.create () in
    ignore (Cogcast.run_static ~trace:tr ~source:0 ~assignment ~k:4 ~rng ());
    assert_clean ~name:"allocation baseline" tr;
    let words = Alloc.words (fun () -> ignore (Sys.opaque_identity (Trace.Check.all tr))) in
    let per_event = words /. float_of_int (Trace.length tr) in
    if per_event > words_per_event_bound then
      Alcotest.failf "Check.all allocated %.2f words per event over %d events (bound %.1f)"
        per_event (Trace.length tr) words_per_event_bound
  end

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
          Alcotest.test_case "non-adjacent slot fires" `Quick test_adjacency_checked;
          Alcotest.test_case "two actions per node fire" `Quick
            test_one_action_per_node_checked;
        ] );
      ( "single pass",
        [
          Alcotest.test_case "agrees with the list oracle" `Quick test_oracle_differential;
          Alcotest.test_case "bad ids: one-winner" `Quick test_bad_ids_one_winner;
          Alcotest.test_case "bad ids: informed-tree" `Quick test_bad_ids_informed_tree;
          Alcotest.test_case "bad ids: phase4-drain" `Quick test_bad_ids_phase4;
          Alcotest.test_case "bad ids: exactly-once" `Quick test_bad_ids_exactly_once;
          Alcotest.test_case "bad ids: rumor-causality" `Quick test_bad_ids_rumor_causality;
          Alcotest.test_case "headless ranges" `Quick test_headless_ranges;
          Alcotest.test_case "bad header: one-winner" `Quick
            (test_meta_header Trace.Check.one_winner);
          Alcotest.test_case "bad header: informed-tree" `Quick
            (test_meta_header Trace.Check.informed_tree);
          Alcotest.test_case "bad header: phase4-drain" `Quick
            (test_meta_header Trace.Check.phase4_drain);
          Alcotest.test_case "bad header: exactly-once" `Quick
            (test_meta_header Trace.Check.exactly_once_drain);
          Alcotest.test_case "bad header: rumor-causality" `Quick
            (test_meta_header Trace.Check.rumor_causality);
          Alcotest.test_case "bad header: all" `Quick (test_meta_header Trace.Check.all);
          Alcotest.test_case "header beyond memory" `Quick test_meta_header_beyond_memory;
          Alcotest.test_case "violation order" `Quick test_violation_order;
          Alcotest.test_case "allocation per event" `Quick test_check_allocation;
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
