(* Tests for COGCOMP with recovery armed ([~recover:true]): bit-identical
   fault-free parity with the disarmed run, bounded termination and honest
   coverage accounting under crashes, churn and reactive jamming, and
   exactly-once folding across retries. *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Aggregate = Crn_core.Aggregate
module Cogcomp = Crn_core.Cogcomp
module Faults = Crn_radio.Faults
module Jammer = Crn_radio.Jammer
module Trace = Crn_radio.Trace
module Runner = Crn_radio.Runner
module Emulation = Crn_radio.Emulation

let check_int = Alcotest.(check int)

let run_pair ?jammer ?faults ?backend ~seed ~source kind spec =
  let values = Array.init spec.Topology.n (fun i -> (i * 13) + 1) in
  let plain =
    let rng = Rng.create seed in
    let assignment = Topology.generate kind rng spec in
    Cogcomp.run ?backend ~monoid:Aggregate.sum ~values ~source ~assignment
      ~k:spec.Topology.k ~rng ()
  in
  let robust =
    let rng = Rng.create seed in
    let assignment = Topology.generate kind rng spec in
    Cogcomp.run ~recover:true ?jammer ?faults ?backend ~monoid:Aggregate.sum
      ~values ~source ~assignment ~k:spec.Topology.k ~rng ()
  in
  (plain, robust)

(* --- fault-free parity ----------------------------------------------------- *)

let parity_specs =
  [
    { Topology.n = 2; c = 4; k = 2 };
    { Topology.n = 24; c = 8; k = 2 };
    { Topology.n = 10; c = 20; k = 5 };
    { Topology.n = 50; c = 6; k = 1 };
  ]

(* Parity holds on every backend, the raw-radio emulations included (at
   their default session caps): no fault schedule means no armed
   watchdog, whatever realizes the slots. *)
let parity_backends =
  let emulation strategy = Runner.Emulation { strategy; session_cap = None } in
  [ Runner.Engine; emulation Emulation.Decay; emulation Emulation.Csma ]

let test_faultfree_parity () =
  List.iter
    (fun (backend, kind) ->
      List.iter
        (fun spec ->
          for seed = 1 to 3 do
            let ctx =
              Printf.sprintf "%s %s n=%d c=%d k=%d seed=%d"
                (Runner.backend_name backend) (Topology.kind_name kind)
                spec.Topology.n spec.Topology.c spec.Topology.k seed
            in
            let plain, robust = run_pair ~backend ~seed ~source:0 kind spec in
            Alcotest.(check bool)
              (ctx ^ " complete") plain.Cogcomp.complete
              robust.Cogcomp.complete;
            check_int (ctx ^ " root") plain.Cogcomp.root_value
              robust.Cogcomp.root_value;
            check_int (ctx ^ " p1") plain.Cogcomp.phase1_slots
              robust.Cogcomp.phase1_slots;
            check_int (ctx ^ " p2") plain.Cogcomp.phase2_slots
              robust.Cogcomp.phase2_slots;
            check_int (ctx ^ " p3") plain.Cogcomp.phase3_slots
              robust.Cogcomp.phase3_slots;
            check_int (ctx ^ " p4") plain.Cogcomp.phase4_slots
              robust.Cogcomp.phase4_slots;
            check_int (ctx ^ " total") plain.Cogcomp.total_slots
              robust.Cogcomp.total_slots;
            Alcotest.(check (list int))
              (ctx ^ " mediators") plain.Cogcomp.mediators
              robust.Cogcomp.mediators;
            check_int (ctx ^ " coverage") spec.Topology.n
              robust.Cogcomp.coverage;
            Alcotest.(check (list int)) (ctx ^ " lost") []
              robust.Cogcomp.lost;
            check_int (ctx ^ " reelections") 0 robust.Cogcomp.reelections;
            check_int (ctx ^ " retries") 0 robust.Cogcomp.retries;
            check_int (ctx ^ " raw rounds") plain.Cogcomp.raw_rounds
              robust.Cogcomp.raw_rounds;
            check_int (ctx ^ " failed sessions") plain.Cogcomp.failed_sessions
              robust.Cogcomp.failed_sessions
          done)
        parity_specs)
    (List.concat_map
       (fun backend -> List.map (fun kind -> (backend, kind)) Topology.all_kinds)
       parity_backends)

(* The strongest form of parity: the slot-level traces — every decide, win,
   delivery and drain event the two runs emit — are byte-identical, so the
   robust machinery provably consumed the same RNG stream and made the same
   decisions. *)
let test_faultfree_trace_identical () =
  List.iter
    (fun (kind, spec, seed) ->
      let values = Array.init spec.Topology.n (fun i -> (i * 7) + 3) in
      let run_traced f =
        let rng = Rng.create seed in
        let assignment = Topology.generate kind rng spec in
        let trace = Trace.create () in
        f ~trace ~assignment ~rng ~values;
        Trace.to_jsonl trace
      in
      let plain =
        run_traced (fun ~trace ~assignment ~rng ~values ->
            ignore
              (Cogcomp.run ~trace ~monoid:Aggregate.sum ~values ~source:0
                 ~assignment ~k:spec.Topology.k ~rng ()))
      in
      let robust =
        run_traced (fun ~trace ~assignment ~rng ~values ->
            ignore
              (Cogcomp.run ~recover:true ~trace ~monoid:Aggregate.sum ~values
                 ~source:0 ~assignment ~k:spec.Topology.k ~rng ()))
      in
      Alcotest.(check string)
        (Printf.sprintf "trace %s n=%d seed=%d" (Topology.kind_name kind)
           spec.Topology.n seed)
        plain robust)
    [
      (Topology.Shared_plus_random, { Topology.n = 20; c = 8; k = 2 }, 1);
      (Topology.Shared_plus_random, { Topology.n = 20; c = 8; k = 2 }, 2);
      (Topology.Pairwise_private, { Topology.n = 16; c = 10; k = 3 }, 3);
      (Topology.Clustered, { Topology.n = 30; c = 6; k = 1 }, 4);
    ]

(* --- crash of a single non-source node ------------------------------------- *)

let test_single_crash () =
  let spec = { Topology.n = 24; c = 8; k = 2 } in
  for seed = 1 to 3 do
    let values = Array.init spec.Topology.n (fun i -> (i * 13) + 1) in
    let rng = Rng.create seed in
    let assignment = Topology.generate Topology.Shared_plus_random rng spec in
    let trace = Trace.create () in
    let res =
      Cogcomp.run ~recover:true ~trace
        ~faults:(Faults.crash ~node:5 ~from_slot:0)
        ~monoid:Aggregate.sum ~values ~source:0 ~assignment ~k:spec.Topology.k
        ~rng ()
    in
    let ctx = Printf.sprintf "crash seed=%d" seed in
    check_int (ctx ^ " coverage+lost")
      spec.Topology.n
      (res.Cogcomp.coverage + List.length res.Cogcomp.lost);
    Alcotest.(check bool)
      (ctx ^ " node 5 lost") true
      (List.mem 5 res.Cogcomp.lost);
    (* The fold at the root is exactly the sum over the covered nodes. *)
    let expect =
      Array.to_list values
      |> List.mapi (fun i x -> (i, x))
      |> List.filter (fun (i, _) -> not (List.mem i res.Cogcomp.lost))
      |> List.fold_left (fun acc (_, x) -> acc + x) 0
    in
    check_int (ctx ^ " root = sum of covered") expect
      res.Cogcomp.root_value;
    (match Trace.Check.all trace with
    | [] -> ()
    | v :: _ ->
        Alcotest.failf "%s: %a" ctx Trace.Check.pp_violation v)
  done

(* --- bernoulli churn ------------------------------------------------------- *)

let test_churn () =
  let spec = { Topology.n = 20; c = 8; k = 2 } in
  for seed = 1 to 3 do
    let values = Array.init spec.Topology.n (fun i -> (i * 11) + 2) in
    let rng = Rng.create seed in
    let assignment = Topology.generate Topology.Shared_plus_random rng spec in
    (* ~9% stationary down fraction, source spared so phase 1 can start. *)
    let faults =
      Faults.spare
        (Faults.bernoulli_churn ~seed:(Int64.of_int (seed * 77)) ~mean_up:100.
           ~mean_down:10.)
        ~node:0
    in
    let trace = Trace.create () in
    let res =
      Cogcomp.run ~recover:true ~trace ~faults ~monoid:Aggregate.sum ~values ~source:0
        ~assignment ~k:spec.Topology.k ~rng ()
    in
    let ctx = Printf.sprintf "churn seed=%d" seed in
    check_int (ctx ^ " coverage+lost")
      spec.Topology.n
      (res.Cogcomp.coverage + List.length res.Cogcomp.lost);
    let expect =
      Array.to_list values
      |> List.mapi (fun i x -> (i, x))
      |> List.filter (fun (i, _) -> not (List.mem i res.Cogcomp.lost))
      |> List.fold_left (fun acc (_, x) -> acc + x) 0
    in
    check_int (ctx ^ " root = sum of covered") expect
      res.Cogcomp.root_value;
    (* Never double-counted, even across retries. *)
    (match Trace.Check.exactly_once_drain trace with
    | [] -> ()
    | v :: _ -> Alcotest.failf "%s: %a" ctx Trace.Check.pp_violation v);
    (match Trace.Check.one_winner trace with
    | [] -> ()
    | v :: _ -> Alcotest.failf "%s: %a" ctx Trace.Check.pp_violation v)
  done

(* --- crash/restart --------------------------------------------------------- *)

let test_crash_restart_recovers () =
  let spec = { Topology.n = 16; c = 6; k = 2 } in
  for seed = 1 to 3 do
    let values = Array.init spec.Topology.n (fun i -> i + 1) in
    let rng = Rng.create seed in
    let assignment = Topology.generate Topology.Shared_plus_random rng spec in
    (* Node 3 naps briefly in every phase (slot numbering restarts per
       phase); the gap detector must clear its transient state and the
       drain must still account for every value exactly once. *)
    let faults = Faults.crash_restart ~node:3 ~from_slot:4 ~down_for:6 in
    let trace = Trace.create () in
    let res =
      Cogcomp.run ~recover:true ~trace ~faults ~monoid:Aggregate.sum ~values ~source:0
        ~assignment ~k:spec.Topology.k ~rng ()
    in
    let ctx = Printf.sprintf "crash-restart seed=%d" seed in
    check_int (ctx ^ " coverage+lost")
      spec.Topology.n
      (res.Cogcomp.coverage + List.length res.Cogcomp.lost);
    let expect =
      Array.to_list values
      |> List.mapi (fun i x -> (i, x))
      |> List.filter (fun (i, _) -> not (List.mem i res.Cogcomp.lost))
      |> List.fold_left (fun acc (_, x) -> acc + x) 0
    in
    check_int (ctx ^ " root = sum of covered") expect
      res.Cogcomp.root_value;
    (match Trace.Check.exactly_once_drain trace with
    | [] -> ()
    | v :: _ -> Alcotest.failf "%s: %a" ctx Trace.Check.pp_violation v)
  done

(* --- reactive jammer ------------------------------------------------------- *)

let test_reactive_jammer_terminates () =
  let spec = { Topology.n = 16; c = 8; k = 2 } in
  for seed = 1 to 2 do
    let values = Array.init spec.Topology.n (fun i -> i + 1) in
    let rng = Rng.create seed in
    let assignment = Topology.generate Topology.Shared_plus_random rng spec in
    let trace = Trace.create () in
    let res =
      Cogcomp.run ~recover:true ~trace ~jammer:(Jammer.reactive ()) ~monoid:Aggregate.sum
        ~values ~source:0 ~assignment ~k:spec.Topology.k ~rng ()
    in
    let ctx = Printf.sprintf "reactive seed=%d" seed in
    check_int (ctx ^ " coverage+lost")
      spec.Topology.n
      (res.Cogcomp.coverage + List.length res.Cogcomp.lost);
    (match Trace.Check.exactly_once_drain trace with
    | [] -> ()
    | v :: _ -> Alcotest.failf "%s: %a" ctx Trace.Check.pp_violation v)
  done

(* --- degradation is graceful ----------------------------------------------- *)

let test_coverage_degrades_gracefully () =
  (* More faults should not somehow *increase* what survives by a large
     margin: with no faults coverage is n; with moderate churn it stays
     positive (the source is spared, so at minimum the source's own value
     is covered). *)
  let spec = { Topology.n = 20; c = 8; k = 2 } in
  let values = Array.init spec.Topology.n (fun i -> i + 1) in
  let run faults seed =
    let rng = Rng.create seed in
    let assignment = Topology.generate Topology.Shared_plus_random rng spec in
    Cogcomp.run ~recover:true ?faults ~monoid:Aggregate.sum ~values ~source:0
      ~assignment ~k:spec.Topology.k ~rng ()
  in
  let clean = run None 1 in
  check_int "fault-free coverage" spec.Topology.n clean.Cogcomp.coverage;
  let churned =
    run
      (Some
         (Faults.spare
            (Faults.bernoulli_churn ~seed:9L ~mean_up:50. ~mean_down:10.)
            ~node:0))
      1
  in
  Alcotest.(check bool)
    "churned coverage positive" true
    (churned.Cogcomp.coverage >= 1);
  Alcotest.(check bool)
    "churned coverage bounded" true
    (churned.Cogcomp.coverage <= spec.Topology.n)

(* --- argument validation ---------------------------------------------------- *)

let test_bad_arguments () =
  let spec = { Topology.n = 4; c = 4; k = 2 } in
  let assignment = Topology.identical (Rng.create 1) spec in
  let rejects name msg run =
    let trace = Trace.create () in
    Alcotest.check_raises name
      (Invalid_argument ("Cogcomp.run: " ^ msg))
      (fun () -> ignore (run trace));
    check_int (name ^ ": no slot ran") 0 (Trace.fold (fun acc _ -> acc + 1) 0 trace)
  in
  let run ?budget_factor ?max_phase4_steps ?(values = [| 1; 2; 3; 4 |])
      ?(source = 0) trace =
    Cogcomp.run ~recover:true ?budget_factor ?max_phase4_steps ~trace
      ~monoid:Aggregate.sum ~values ~source ~assignment ~k:2 ~rng:(Rng.create 1) ()
  in
  rejects "length mismatch" "values length mismatch" (run ~values:[| 1 |]);
  rejects "source out of range" "source out of range" (run ~source:4);
  rejects "nan budget factor" "budget factor must be finite and > 0"
    (run ~budget_factor:Float.nan);
  rejects "zero budget factor" "budget factor must be finite and > 0"
    (run ~budget_factor:0.0);
  rejects "negative phase-4 cap" "max_phase4_steps must be >= 0"
    (run ~max_phase4_steps:(-1))

let () =
  Alcotest.run "cogcomp_robust"
    [
      ( "parity",
        [
          Alcotest.test_case "fault-free results identical to plain" `Quick
            test_faultfree_parity;
          Alcotest.test_case "fault-free traces byte-identical" `Quick
            test_faultfree_trace_identical;
        ] );
      ( "arguments",
        [ Alcotest.test_case "bad arguments rejected up front" `Quick test_bad_arguments ] );
      ( "faults",
        [
          Alcotest.test_case "single non-source crash" `Quick test_single_crash;
          Alcotest.test_case "bernoulli churn" `Quick test_churn;
          Alcotest.test_case "crash/restart recovers" `Quick
            test_crash_restart_recovers;
          Alcotest.test_case "reactive jammer terminates" `Quick
            test_reactive_jammer_terminates;
          Alcotest.test_case "graceful degradation" `Quick
            test_coverage_degrades_gracefully;
        ] );
    ]
