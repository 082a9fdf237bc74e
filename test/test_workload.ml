(* Sustained-traffic workload tests: the open-loop arrival generator, the
   multi-rumor gossip and push-sum machines, the new rumor-causality trace
   checker, and the two workload invariants as properties with shrinking —
   push-sum mass conservation (crash faults included) and rumor latency
   dominating hop distance. *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Dynamic = Crn_channel.Dynamic
module Trace = Crn_radio.Trace
module Faults = Crn_radio.Faults
module Json = Crn_stats.Json
module Protocol = Crn_proto.Protocol
module Registry = Crn_proto.Registry
module Arrivals = Crn_workload.Arrivals
module Gossip = Crn_workload.Gossip

let seed = Prop.env_seed ()
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- the load generator ------------------------------------------------ *)

let test_arrivals_deterministic () =
  let gen s =
    Arrivals.generate ~rng:(Rng.create s) ~law:Arrivals.Poisson ~rate:0.3 ~n:16
      ~rumors:20
  in
  check "same seed, same schedule" true (gen seed = gen seed);
  let a = gen seed in
  check_int "rumor count" 20 (Array.length a);
  Array.iteri
    (fun i arr ->
      check_int "rumor ids consecutive" i arr.Arrivals.rumor;
      check "origin in range" true (arr.Arrivals.origin >= 0 && arr.Arrivals.origin < 16);
      check "slot nonnegative" true (arr.Arrivals.slot >= 0);
      if i > 0 then
        check "slots non-decreasing" true (arr.Arrivals.slot >= a.(i - 1).Arrivals.slot))
    a

let test_arrivals_uniform_spacing () =
  let a =
    Arrivals.generate ~rng:(Rng.create seed) ~law:Arrivals.Uniform ~rate:0.25 ~n:4
      ~rumors:8
  in
  (* Rate 1/4: arrival i lands exactly at slot 4 * (i + 1). *)
  Array.iteri
    (fun i arr -> check_int "uniform slot" (4 * (i + 1)) arr.Arrivals.slot)
    a;
  check_int "span" 32 (Arrivals.span a);
  let queues = Arrivals.by_origin ~n:4 a in
  check_int "by_origin partitions everything" 8
    (Array.fold_left (fun acc q -> acc + List.length q) 0 queues)

(* ---- environments ------------------------------------------------------ *)

let mk_env ?faults ?trace ?load ~n ~c ~k rng =
  let assignment = Topology.generate Topology.Shared_plus_random rng { Topology.n; c; k } in
  Protocol.env ?faults ?trace ?load ~k ~availability:(Dynamic.static assignment) ~rng ()

let detail_float key (s : Protocol.summary) =
  match Json.member key s.Protocol.detail with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "summary detail has no numeric %S" key

let detail_int key (s : Protocol.summary) =
  match Json.member key s.Protocol.detail with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "summary detail has no int %S" key

(* ---- per-rumor termination counters ------------------------------------ *)

let run_gossip_machine ~hear_limit ~trial =
  let rng = Rng.create (seed + trial) in
  let n = 12 and c = 6 and k = 2 in
  let assignment = Topology.generate Topology.Shared_plus_random rng { Topology.n; c; k } in
  let availability = Dynamic.static assignment in
  let arrivals =
    Arrivals.generate ~rng:(Rng.split rng) ~law:Arrivals.Poisson ~rate:0.3 ~n
      ~rumors:3
  in
  let m = Gossip.machine ~hear_limit ~arrivals ~availability ~rng () in
  fst
    (Crn_radio.Runner.drive
       (Crn_radio.Runner.make ~availability ~rng ())
       m ~max_slots:4_000)

let test_hear_limit_retires () =
  (* At the tightest counter every node retires each rumor after one
     further hearing; with an effectively infinite counter nothing ever
     retires. Completion must survive both settings — retirement throttles
     chatter, the simulator's completion detection does not depend on it. *)
  let tight = run_gossip_machine ~hear_limit:1 ~trial:0 in
  check "tight counter retires pairs" true (tight.Gossip.retired > 0);
  check_int "tight counter still completes" tight.Gossip.total_rumors
    tight.Gossip.completed;
  let loose = run_gossip_machine ~hear_limit:1_000_000 ~trial:0 in
  check_int "loose counter retires nothing" 0 loose.Gossip.retired;
  check_int "loose counter completes" loose.Gossip.total_rumors loose.Gossip.completed

let test_default_hear_limit () =
  check_int "n=2" 12 (Gossip.default_hear_limit ~n:2);
  check_int "n=16" 24 (Gossip.default_hear_limit ~n:16);
  check "monotone in n" true
    (Gossip.default_hear_limit ~n:1024 >= Gossip.default_hear_limit ~n:16)

(* ---- gossip end-to-end through the registry ---------------------------- *)

let test_gossip_registry_run () =
  let proto = Registry.find_exn "gossip" in
  let load = { Protocol.rate = 0.3; arrivals = Protocol.Poisson; rumors = 5 } in
  let tr = Trace.create () in
  let s = Protocol.run proto (mk_env ~trace:tr ~load ~n:16 ~c:6 ~k:2 (Rng.create seed)) in
  check "completed" true s.Protocol.completed;
  check_int "all rumors injected" 5 (detail_int "injected" s);
  check_int "all rumors completed" 5 (detail_int "completed_rumors" s);
  check_int "every non-origin node learned every rumor" (5 * 15)
    (detail_int "deliveries" s);
  check "throughput positive" true (detail_float "throughput" s > 0.0);
  check "latency percentiles ordered" true
    (detail_float "latency_p50" s <= detail_float "latency_p95" s
    && detail_float "latency_p95" s <= detail_float "latency_p99" s);
  (match Trace.Check.all tr with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "gossip trace not clean: %s"
        (Format.asprintf "%a" Trace.Check.pp_violation v));
  (* The trace carries the full rumor story. *)
  let count f = Trace.fold (fun acc ev -> if f ev then acc + 1 else acc) 0 tr in
  check_int "Injected events" 5 (count (function Trace.Injected _ -> true | _ -> false));
  check_int "Rumor_done events" 5
    (count (function Trace.Rumor_done _ -> true | _ -> false));
  check_int "Rumor_delivered events" (5 * 15)
    (count (function Trace.Rumor_delivered _ -> true | _ -> false))

(* ---- push-sum end-to-end ----------------------------------------------- *)

let test_push_sum_registry_run () =
  let proto = Registry.find_exn "push_sum" in
  let load = { Protocol.rate = 0.1; arrivals = Protocol.Poisson; rumors = 3 } in
  let s = Protocol.run proto (mk_env ~load ~n:16 ~c:6 ~k:2 (Rng.create (seed + 1))) in
  check "completed" true s.Protocol.completed;
  check_int "arrivals injected" 3 (detail_int "injected" s);
  check "no mass lost fault-free" true (detail_float "lost_mass" s = 0.0);
  check "conservation drift tiny" true (detail_float "max_drift" s <= 1e-6);
  check "estimates within tolerance" true (detail_float "estimate_error" s <= 0.02)

(* ---- property: push-sum mass conservation, crash faults included ------- *)

type ps_case = { ps_n : int; ps_c : int; ps_seed : int; crashes : (int * int) list }

let ps_gen =
  {
    Prop.sample =
      (fun rng ->
        let ps_n = 4 + Rng.int rng 16 in
        let ps_c = 3 + Rng.int rng 6 in
        let ps_seed = Rng.int rng 10_000 in
        let crashes =
          List.init (Rng.int rng 4) (fun _ ->
              (Rng.int rng ps_n, Rng.int rng 60))
        in
        { ps_n; ps_c; ps_seed; crashes });
    shrink =
      (fun cs ->
        let fewer_crashes =
          Seq.map (fun crashes -> { cs with crashes })
            (Prop.shrink_list_drop1 cs.crashes)
        in
        let smaller_n =
          if cs.ps_n > 4 then Seq.return { cs with ps_n = cs.ps_n - 1 }
          else Seq.empty
        in
        Seq.append fewer_crashes smaller_n);
    print =
      (fun cs ->
        Printf.sprintf "{n=%d c=%d seed=%d crashes=[%s]}" cs.ps_n cs.ps_c cs.ps_seed
          (String.concat "; "
             (List.map (fun (v, s) -> Printf.sprintf "%d@%d" v s) cs.crashes)));
  }

let test_prop_push_sum_conservation () =
  let proto = Registry.find_exn "push_sum" in
  Prop.check ~count:40 ~name:"push-sum conserves mass" ps_gen (fun cs ->
      let faults =
        match cs.crashes with
        | [] -> None
        | l ->
            Some
              (List.fold_left
                 (fun acc (node, from_slot) ->
                   Faults.union acc (Faults.crash ~node ~from_slot))
                 Faults.none l)
      in
      let load = { Protocol.rate = 0.15; arrivals = Protocol.Poisson; rumors = 2 } in
      let s =
        Protocol.run proto
          (mk_env ?faults ~load ~n:cs.ps_n ~c:cs.ps_c ~k:2 (Rng.create cs.ps_seed))
      in
      let drift = detail_float "max_drift" s in
      let lost = detail_float "lost_mass" s in
      if drift > 1e-6 then
        Some (Printf.sprintf "conservation drift %.3e exceeds 1e-6" drift)
      else if cs.crashes = [] && lost <> 0.0 then
        Some (Printf.sprintf "lost %.3e mass without any fault" lost)
      else if lost < 0.0 then Some (Printf.sprintf "negative lost mass %.3e" lost)
      else None)

(* ---- property: rumor latency dominates hop distance -------------------- *)

type g_case = { g_n : int; g_c : int; g_seed : int }

let g_gen =
  {
    Prop.sample =
      (fun rng ->
        {
          g_n = 3 + Rng.int rng 20;
          g_c = 3 + Rng.int rng 6;
          g_seed = Rng.int rng 10_000;
        });
    shrink =
      (fun cs ->
        if cs.g_n > 3 then Seq.return { cs with g_n = cs.g_n - 1 } else Seq.empty);
    print =
      (fun cs -> Printf.sprintf "{n=%d c=%d seed=%d}" cs.g_n cs.g_c cs.g_seed);
  }

let test_prop_gossip_latency_vs_hops () =
  let proto = Registry.find_exn "gossip" in
  Prop.check ~count:40 ~name:"rumor latency >= hop distance" g_gen (fun cs ->
      let load = { Protocol.rate = 0.25; arrivals = Protocol.Poisson; rumors = 3 } in
      let tr = Trace.create () in
      ignore
        (Protocol.run proto
           (mk_env ~trace:tr ~load ~n:cs.g_n ~c:cs.g_c ~k:2 (Rng.create cs.g_seed)));
      (* Depth of each (rumor, node) in the delivery forest; origins are at
         depth 0. The trace is causally ordered, so parents appear first. *)
      let injected : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
      let depth : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
      let bad = ref None in
      Trace.iter
        (fun ev ->
          match ev with
          | Trace.Injected { slot; rumor; node } ->
              Hashtbl.replace injected rumor (slot, node);
              Hashtbl.replace depth (rumor, node) 0
          | Trace.Rumor_delivered { slot; rumor; node; parent } when !bad = None -> (
              match
                (Hashtbl.find_opt injected rumor, Hashtbl.find_opt depth (rumor, parent))
              with
              | Some (inj_slot, _), Some pd ->
                  let d = pd + 1 in
                  Hashtbl.replace depth (rumor, node) d;
                  let latency = slot - inj_slot + 1 in
                  if latency < d then
                    bad :=
                      Some
                        (Printf.sprintf
                           "rumor %d at node %d: latency %d < hop depth %d" rumor
                           node latency d)
              | _ ->
                  bad :=
                    Some
                      (Printf.sprintf "rumor %d delivered out of causal order" rumor))
          | _ -> ())
        tr;
      !bad)

(* ---- mutation: the rumor-causality checker must fire ------------------- *)

let healthy_gossip_trace () =
  let proto = Registry.find_exn "gossip" in
  let load = { Protocol.rate = 0.3; arrivals = Protocol.Poisson; rumors = 3 } in
  let tr = Trace.create () in
  ignore (Protocol.run proto (mk_env ~trace:tr ~load ~n:12 ~c:6 ~k:2 (Rng.create (seed + 7))));
  (match Trace.Check.all tr with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "mutation baseline not clean: %s"
        (Format.asprintf "%a" Trace.Check.pp_violation v));
  tr

let expect_fires ~what mutated =
  match Trace.Check.rumor_causality (Trace.of_list mutated) with
  | [] -> Alcotest.failf "rumor-causality checker accepted %s" what
  | _ -> ()

let test_mutation_delivery_before_injection () =
  let events = Trace.to_list (healthy_gossip_trace ()) in
  let done_ = ref false in
  let mutated =
    List.map
      (fun ev ->
        match ev with
        | Trace.Rumor_delivered r when not !done_ ->
            done_ := true;
            Trace.Rumor_delivered { r with slot = -1 }
        | _ -> ev)
      events
  in
  if not !done_ then Alcotest.fail "no Rumor_delivered to corrupt";
  expect_fires ~what:"a delivery predating its injection" mutated

let test_mutation_duplicate_delivery () =
  let events = Trace.to_list (healthy_gossip_trace ()) in
  let done_ = ref false in
  let mutated =
    List.concat_map
      (fun ev ->
        match ev with
        | Trace.Rumor_delivered r when not !done_ ->
            done_ := true;
            [ ev; Trace.Rumor_delivered { r with slot = r.slot + 2 } ]
        | _ -> [ ev ])
      events
  in
  if not !done_ then Alcotest.fail "no Rumor_delivered to duplicate";
  expect_fires ~what:"a node learning the same rumor twice" mutated

let test_mutation_self_parent () =
  let events = Trace.to_list (healthy_gossip_trace ()) in
  let done_ = ref false in
  let mutated =
    List.map
      (fun ev ->
        match ev with
        | Trace.Rumor_delivered r when not !done_ ->
            done_ := true;
            Trace.Rumor_delivered { r with parent = r.node }
        | _ -> ev)
      events
  in
  expect_fires ~what:"a self-parented delivery" mutated

let test_mutation_done_without_coverage () =
  (* Dropping one delivery must invalidate that rumor's Rumor_done. *)
  let events = Trace.to_list (healthy_gossip_trace ()) in
  let dropped = ref None in
  let mutated =
    List.filter
      (fun ev ->
        match ev with
        | Trace.Rumor_delivered { rumor; _ } when !dropped = None ->
            dropped := Some rumor;
            false
        | _ -> true)
      events
  in
  if !dropped = None then Alcotest.fail "no Rumor_delivered to drop";
  expect_fires ~what:"a Rumor_done with a missing delivery" mutated

let test_mutation_done_uninjected () =
  let events = Trace.to_list (healthy_gossip_trace ()) in
  let mutated = events @ [ Trace.Rumor_done { slot = 10_000; rumor = 9_999 } ] in
  expect_fires ~what:"a Rumor_done for a rumor never injected" mutated

let test_rumor_events_roundtrip () =
  let events =
    [
      Trace.Injected { slot = 3; rumor = 1; node = 4 };
      Trace.Rumor_delivered { slot = 5; rumor = 1; node = 2; parent = 4 };
      Trace.Rumor_done { slot = 9; rumor = 1 };
    ]
  in
  List.iter
    (fun ev ->
      match Trace.event_of_json (Trace.json_of_event ev) with
      | Some ev' -> check "roundtrip" true (ev = ev')
      | None -> Alcotest.fail "rumor event did not survive JSON roundtrip")
    events

let () =
  Alcotest.run "workload"
    [
      ( "arrivals",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_arrivals_deterministic;
          Alcotest.test_case "uniform spacing exact" `Quick test_arrivals_uniform_spacing;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "termination counters retire" `Quick test_hear_limit_retires;
          Alcotest.test_case "default hear limit" `Quick test_default_hear_limit;
          Alcotest.test_case "registry run end-to-end" `Quick test_gossip_registry_run;
        ] );
      ( "push-sum",
        [
          Alcotest.test_case "registry run end-to-end" `Quick test_push_sum_registry_run;
        ] );
      ( "properties",
        [
          Alcotest.test_case "mass conservation under crashes" `Slow
            test_prop_push_sum_conservation;
          Alcotest.test_case "latency dominates hop distance" `Slow
            test_prop_gossip_latency_vs_hops;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "delivery before injection" `Quick
            test_mutation_delivery_before_injection;
          Alcotest.test_case "duplicate delivery" `Quick test_mutation_duplicate_delivery;
          Alcotest.test_case "self parent" `Quick test_mutation_self_parent;
          Alcotest.test_case "done without coverage" `Quick
            test_mutation_done_without_coverage;
          Alcotest.test_case "done without injection" `Quick test_mutation_done_uninjected;
          Alcotest.test_case "rumor events JSON roundtrip" `Quick
            test_rumor_events_roundtrip;
        ] );
    ]
