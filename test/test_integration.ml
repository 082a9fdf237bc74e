(* Cross-library integration tests: the Crn facade end to end, protocol
   cross-checks, and scenario-level runs combining jammers, dynamics and
   baselines. *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Assignment = Crn_channel.Assignment
module Dynamic = Crn_channel.Dynamic
module Jammer = Crn_radio.Jammer
module Jamming_reduction = Crn_radio.Jamming_reduction
module Crn = Crn_core.Crn
module Cogcast = Crn_core.Cogcast
module Cogcomp = Crn_core.Cogcomp
module Aggregate = Crn_core.Aggregate
module Complexity = Crn_core.Complexity
module Disttree = Crn_core.Disttree
module Runner = Crn_radio.Runner
module Aggregation_baseline = Crn_rendezvous.Aggregation_baseline

(* The root's aggregate where the run claims it complete. *)
let root r = if r.Cogcomp.complete then Some r.Cogcomp.root_value else None

let check = Alcotest.(check bool)

(* --- facade --------------------------------------------------------------- *)

let test_facade_broadcast () =
  let net = Crn.make_network ~n:40 ~c:10 ~k:3 () in
  let r = Crn.broadcast net in
  check "facade broadcast completes" true (r.Cogcast.completed_at <> None)

let test_facade_aggregate () =
  let net = Crn.make_network ~topology:Topology.Shared_core ~n:25 ~c:8 ~k:2 () in
  let values = Array.init 25 (fun i -> i) in
  let res = Crn.aggregate net ~monoid:Aggregate.sum ~values in
  Alcotest.(check (option int)) "facade sum" (Some 300) (root res)

let test_facade_bounds_monotone () =
  let small = Crn.make_network ~n:32 ~c:8 ~k:4 () in
  let large = Crn.make_network ~n:32 ~c:32 ~k:4 () in
  check "larger c larger bound" true
    (Crn.broadcast_bound large > Crn.broadcast_bound small);
  check "aggregation bound includes linear term" true
    (Crn.aggregation_bound small > Crn.broadcast_bound small)

let test_facade_deterministic () =
  let mk () =
    let net = Crn.make_network ~seed:5 ~n:20 ~c:6 ~k:2 () in
    (Crn.broadcast ~seed:7 net).Cogcast.completed_at
  in
  Alcotest.(check (option int)) "same seeds same run" (mk ()) (mk ())

(* --- protocol cross-checks --------------------------------------------------- *)

let test_cogcomp_tree_matches_standalone_cogcast_shape () =
  (* The tree COGCOMP builds must satisfy the same structural invariants as a
     standalone COGCAST tree. *)
  let spec = { Topology.n = 30; c = 8; k = 2 } in
  let assignment = Topology.shared_plus_random (Rng.create 1) spec in
  let res =
    Cogcomp.run ~monoid:Aggregate.sum ~values:(Array.make 30 1) ~source:0 ~assignment
      ~k:2 ~rng:(Rng.create 2) ()
  in
  check "complete" true res.Cogcomp.complete;
  (match Disttree.validate res.Cogcomp.tree with
  | Ok () -> ()
  | Error e -> Alcotest.failf "tree: %s" e);
  check "root is source" true (res.Cogcomp.tree.Disttree.root = 0)

let test_aggregation_agrees_with_baseline () =
  (* COGCOMP and the rendezvous baseline must agree on the value (they share
     nothing but the network). *)
  let spec = { Topology.n = 18; c = 6; k = 3 } in
  let assignment = Topology.shared_core (Rng.create 3) spec in
  let values = Array.init 18 (fun i -> (i * i) + 1 ) in
  let a =
    Cogcomp.run ~monoid:Aggregate.sum ~values ~source:0 ~assignment ~k:3
      ~rng:(Rng.create 4) ()
  in
  let b, _ =
    let availability = Dynamic.static assignment and rng = Rng.create 5 in
    Runner.drive
      (Runner.make ~availability ~rng ())
      (Aggregation_baseline.machine ~monoid:Aggregate.sum ~values ~source:0
         ~availability ~rng ())
      ~max_slots:
        (int_of_float
           (Float.ceil (8.0 *. Complexity.rendezvous_aggregation ~n:18 ~c:6 ~k:3)))
  in
  Alcotest.(check (option int)) "same aggregate" (root a)
    b.Aggregation_baseline.root_value

let test_whitespace_scenario () =
  (* A TV-whitespace-flavoured scenario: heterogeneous availability from a
     clustered topology; max-interference reading aggregated to a gateway. *)
  let spec = { Topology.n = 36; c = 12; k = 3 } in
  let assignment = Topology.clustered ~groups:6 (Rng.create 6) spec in
  let readings = Array.init 36 (fun i -> (i * 37) mod 101) in
  let res =
    Cogcomp.run ~monoid:Aggregate.max_int ~values:readings ~source:0 ~assignment
      ~k:3 ~rng:(Rng.create 7) ()
  in
  Alcotest.(check (option int)) "max reading"
    (Some (Array.fold_left max readings.(0) readings))
    (root res)

let test_jamming_scenario_end_to_end () =
  (* Theorem 18 route at scenario scale: a sweep jammer and a random jammer,
     both under budget c/2 - 1; broadcast must complete via the reduction. *)
  let n = 20 and big_c = 24 in
  List.iter
    (fun jammer ->
      let budget = Jammer.budget jammer in
      let availability =
        Jamming_reduction.availability_of_jammer ~shuffle_labels:(Rng.create 8)
          ~num_nodes:n ~num_channels:big_c ~jammer ()
      in
      let k = Jamming_reduction.overlap_guarantee ~num_channels:big_c ~budget in
      let c = big_c - budget in
      let max_slots = 4 * Complexity.cogcast_slots ~n ~c ~k () in
      let r = Cogcast.run ~source:0 ~availability ~rng:(Rng.create 9) ~max_slots () in
      if r.Cogcast.completed_at = None then
        Alcotest.failf "broadcast failed under %s jammer" (Jammer.name jammer))
    [
      Jammer.sweep ~budget:8 ~num_channels:big_c;
      Jammer.random_per_node ~seed:77L ~budget:11 ~num_channels:big_c;
      Jammer.targeted_low ~budget:11;
    ]

let test_dynamic_aggregation_not_supported_but_broadcast_is () =
  (* §7: COGCAST tolerates dynamics. Sanity-check the dynamic path at the
     facade level parameters. *)
  let spec = { Topology.n = 30; c = 10; k = 2 } in
  let availability = Dynamic.reshuffled_shared_core ~seed:(Rng.create 10) spec in
  let max_slots = Complexity.cogcast_slots ~n:30 ~c:10 ~k:2 () in
  let r = Cogcast.run ~source:0 ~availability ~rng:(Rng.create 11) ~max_slots () in
  check "dynamic broadcast completes" true (r.Cogcast.completed_at <> None)

let test_budget_vs_rendezvous_bound_ordering () =
  (* The closed forms must reproduce the paper's headline separation for
     n >= c: COGCAST's budget is a factor ~c/lg-free below rendezvous. *)
  let n = 512 and c = 32 and k = 2 in
  let cogcast = Complexity.cogcast ~factor:1.0 ~n ~c ~k () in
  let rendezvous = Complexity.rendezvous_broadcast ~n ~c ~k in
  check "bound separation = factor c" true
    (Float.abs ((rendezvous /. cogcast) -. float_of_int c) < 1e-6)

let test_multiseed_cogcomp_sum_never_wrong () =
  (* Whatever happens, a complete run never reports a wrong aggregate. *)
  for seed = 1 to 25 do
    let n = 5 + (seed mod 20) in
    let c = 3 + (seed mod 7) in
    let k = 1 + (seed mod c) in
    let spec = { Topology.n; c; k } in
    let assignment = Topology.generate
        (List.nth Topology.all_kinds (seed mod 5))
        (Rng.create (seed * 3)) spec
    in
    let values = Array.init n (fun i -> i - 3) in
    let res =
      Cogcomp.run ~monoid:Aggregate.sum ~values ~source:(seed mod n) ~assignment ~k
        ~rng:(Rng.create (seed * 7)) ()
    in
    if res.Cogcomp.complete then
      Alcotest.(check (option int))
        (Printf.sprintf "seed %d" seed)
        (Some (Array.fold_left ( + ) 0 values))
        (root res)
  done

(* --- Theorem 17: the dynamic-model adversary ---------------------------------- *)

module Adversary = Crn_channel.Adversary

let test_adversary_invariants () =
  (* Per-slot: min pairwise overlap exactly k; the predicted label is a
     channel only the source owns. *)
  let spec = { Topology.n = 8; c = 6; k = 2 } in
  let predicted = ref [] in
  let predict ~slot =
    let label = (slot * 3) mod 6 in
    predicted := (slot, label) :: !predicted;
    label
  in
  let d = Adversary.isolate_source ~spec ~source:0 ~predict_source_label:predict in
  for slot = 0 to 20 do
    let a = Dynamic.at d slot in
    Alcotest.(check int) "overlap exactly k" 2 (Assignment.min_pairwise_overlap a);
    let label = List.assoc slot !predicted in
    let ch = Assignment.global_of_local a ~node:0 ~label in
    for v = 1 to 7 do
      Alcotest.(check (option int)) "isolated channel" None
        (Assignment.local_of_global a ~node:v ~channel:ch)
    done
  done

let test_adversary_stalls_leaked_seed_cogcast () =
  (* With the seed leaked, COGCAST never informs anyone. *)
  let n = 12 and c = 6 and k = 2 in
  let seed = 77 in
  let oracle = Cogcast.label_oracle ~seed ~n ~c ~node:0 in
  let d =
    Adversary.isolate_source ~spec:{ Topology.n; c; k } ~source:0
      ~predict_source_label:oracle
  in
  let r = Cogcast.run ~source:0 ~availability:d ~rng:(Rng.create seed) ~max_slots:3000 () in
  Alcotest.(check int) "source forever alone" 1 r.Cogcast.informed_count

let test_adversary_stalls_fixed_label_algorithm () =
  (* Label-0 scanning (a deterministic strategy) is equally doomed. *)
  let n = 12 and c = 6 and k = 2 in
  let d =
    Adversary.isolate_source ~spec:{ Topology.n; c; k } ~source:0
      ~predict_source_label:(fun ~slot:_ -> 0)
  in
  (* A minimal deterministic broadcaster: source broadcasts on label 0,
     everyone else listens on label 0. *)
  let informed = Array.make n false in
  informed.(0) <- true;
  let machine =
    {
      Crn_radio.Machine.decide =
        (fun ~node:v ~slot:_ ->
          if v = 0 then Crn_radio.Action.broadcast ~label:0 ()
          else Crn_radio.Action.listen ~label:0);
      feedback =
        (fun ~node:v ~slot:_ -> function
          | Crn_radio.Action.Heard _ -> informed.(v) <- true
          | _ -> ());
      finished = (fun () -> false);
      snapshot =
        (fun ~slots_run:_ ->
          Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 informed);
    }
  in
  let count, _ =
    Runner.drive
      (Runner.make ~availability:d ~rng:(Rng.create 3) ())
      machine ~max_slots:2000
  in
  Alcotest.(check int) "nobody informed" 1 count

let test_secret_seed_defeats_adversary () =
  (* The oracle replays seed 77; running COGCAST with a different (secret)
     seed makes the predictions worthless and broadcast completes. *)
  let n = 12 and c = 6 and k = 2 in
  let oracle = Cogcast.label_oracle ~seed:77 ~n ~c ~node:0 in
  let d =
    Adversary.isolate_source ~spec:{ Topology.n; c; k } ~source:0
      ~predict_source_label:oracle
  in
  let r =
    Cogcast.run ~source:0 ~availability:d ~rng:(Rng.create 1234) ~max_slots:3000 ()
  in
  check "secret randomness completes" true (r.Cogcast.completed_at <> None)

let test_label_oracle_matches_run () =
  (* Guard: the oracle must track Cogcast.run's actual per-slot labels. Run
     with recording and compare the source's logged labels. *)
  let spec = { Topology.n = 6; c = 5; k = 2 } in
  let assignment = Topology.identical (Rng.create 9) spec in
  let seed = 4242 in
  let r =
    Cogcast.run ~record:true ~stop_when_complete:false ~source:0
      ~availability:(Dynamic.static assignment) ~rng:(Rng.create seed) ~max_slots:40 ()
  in
  let logs = Option.get r.Cogcast.logs in
  let oracle = Cogcast.label_oracle ~seed ~n:6 ~c:5 ~node:0 in
  for slot = 0 to 39 do
    Alcotest.(check int)
      (Printf.sprintf "slot %d label" slot)
      logs.(0).(slot).Cogcast.label (oracle ~slot)
  done

let () =
  Alcotest.run "integration"
    [
      ( "facade",
        [
          Alcotest.test_case "broadcast" `Quick test_facade_broadcast;
          Alcotest.test_case "aggregate" `Quick test_facade_aggregate;
          Alcotest.test_case "bounds monotone" `Quick test_facade_bounds_monotone;
          Alcotest.test_case "deterministic" `Quick test_facade_deterministic;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "cogcomp tree shape" `Quick
            test_cogcomp_tree_matches_standalone_cogcast_shape;
          Alcotest.test_case "agrees with baseline" `Quick test_aggregation_agrees_with_baseline;
          Alcotest.test_case "whitespace sensing" `Quick test_whitespace_scenario;
          Alcotest.test_case "jamming end to end" `Quick test_jamming_scenario_end_to_end;
          Alcotest.test_case "dynamic broadcast" `Quick
            test_dynamic_aggregation_not_supported_but_broadcast_is;
          Alcotest.test_case "bound separation" `Quick test_budget_vs_rendezvous_bound_ordering;
          Alcotest.test_case "multi-seed never wrong" `Quick test_multiseed_cogcomp_sum_never_wrong;
        ] );
      ( "theorem 17 adversary",
        [
          Alcotest.test_case "invariants" `Quick test_adversary_invariants;
          Alcotest.test_case "stalls leaked-seed COGCAST" `Quick
            test_adversary_stalls_leaked_seed_cogcast;
          Alcotest.test_case "stalls deterministic schedule" `Quick
            test_adversary_stalls_fixed_label_algorithm;
          Alcotest.test_case "secret seed completes" `Quick test_secret_seed_defeats_adversary;
          Alcotest.test_case "oracle matches run" `Quick test_label_oracle_matches_run;
        ] );
    ]
