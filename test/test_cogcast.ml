(* Tests for COGCAST (Theorem 4) and the distribution tree it builds. *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Assignment = Crn_channel.Assignment
module Dynamic = Crn_channel.Dynamic
module Jammer = Crn_radio.Jammer
module Jamming_reduction = Crn_radio.Jamming_reduction
module Cogcast = Crn_core.Cogcast
module Disttree = Crn_core.Disttree
module Complexity = Crn_core.Complexity

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_on ?record ?(seed = 1) ?(source = 0) kind spec =
  let rng = Rng.create seed in
  let assignment = Topology.generate kind rng spec in
  Cogcast.run_static ?record ~source ~assignment ~k:spec.Topology.k ~rng ()

(* --- completion ---------------------------------------------------------- *)

let test_completes_all_topologies () =
  List.iter
    (fun kind ->
      List.iter
        (fun spec ->
          for seed = 1 to 3 do
            let r = run_on ~seed kind spec in
            if r.Cogcast.completed_at = None then
              Alcotest.failf "COGCAST failed on %s (n=%d c=%d k=%d seed=%d): %d/%d informed"
                (Topology.kind_name kind) spec.Topology.n spec.Topology.c spec.Topology.k
                seed r.Cogcast.informed_count r.Cogcast.n
          done)
        [
          { Topology.n = 2; c = 4; k = 1 };
          { Topology.n = 32; c = 8; k = 2 };
          { Topology.n = 16; c = 16; k = 8 };
          { Topology.n = 64; c = 4; k = 4 };
        ])
    Topology.all_kinds

let test_c_bigger_than_n () =
  (* The max{1, c/n} regime: c = 64 channels, only 8 nodes. *)
  let spec = { Topology.n = 8; c = 64; k = 8 } in
  let r = run_on ~seed:5 Topology.Shared_core spec in
  check "completes when c >> n" true (r.Cogcast.completed_at <> None)

let test_single_node () =
  let spec = { Topology.n = 1; c = 3; k = 1 } in
  let r = run_on Topology.Identical spec in
  Alcotest.(check (option int)) "n=1 complete at slot 0" (Some 0) r.Cogcast.completed_at

let test_source_out_of_range () =
  let spec = { Topology.n = 4; c = 4; k = 2 } in
  let assignment = Topology.identical (Rng.create 1) spec in
  Alcotest.check_raises "bad source" (Invalid_argument "Cogcast.run: source out of range")
    (fun () ->
      ignore (Cogcast.run_static ~source:7 ~assignment ~k:2 ~rng:(Rng.create 1) ()))

let test_deterministic_given_seed () =
  let spec = { Topology.n = 24; c = 8; k = 2 } in
  let r1 = run_on ~seed:9 Topology.Shared_plus_random spec in
  let r2 = run_on ~seed:9 Topology.Shared_plus_random spec in
  Alcotest.(check (option int)) "same completion slot" r1.Cogcast.completed_at
    r2.Cogcast.completed_at;
  check "same parents" true (r1.Cogcast.parent = r2.Cogcast.parent)

let test_budget_not_exceeded () =
  let spec = { Topology.n = 32; c = 8; k = 2 } in
  let budget = Complexity.cogcast_slots ~n:32 ~c:8 ~k:2 () in
  let r = run_on ~seed:2 Topology.Shared_core spec in
  check "slots within budget" true (r.Cogcast.slots_run <= budget)

let test_informed_fields_consistent () =
  let spec = { Topology.n = 20; c = 6; k = 2 } in
  let r = run_on ~seed:3 Topology.Shared_plus_random spec in
  Array.iteri
    (fun v informed ->
      if v = r.Cogcast.source then begin
        check "source informed" true informed;
        check "source has no parent" true (r.Cogcast.parent.(v) = None)
      end
      else if informed then begin
        check "informed has parent" true (r.Cogcast.parent.(v) <> None);
        check "informed has slot" true (r.Cogcast.informed_at.(v) <> None);
        check "informed has label" true (r.Cogcast.informed_label.(v) <> None);
        (* Parent was informed strictly earlier (source counts as slot -1). *)
        let parent = Option.get r.Cogcast.parent.(v) in
        let v_slot = Option.get r.Cogcast.informed_at.(v) in
        let p_slot =
          if parent = r.Cogcast.source then -1
          else Option.get r.Cogcast.informed_at.(parent)
        in
        check "parent informed earlier" true (p_slot < v_slot)
      end)
    r.Cogcast.informed

(* --- recorded logs -------------------------------------------------------- *)

let test_logs_match_outcome () =
  let spec = { Topology.n = 12; c = 6; k = 3 } in
  let rng = Rng.create 4 in
  let assignment = Topology.shared_plus_random rng spec in
  let r =
    Cogcast.run_static ~record:true ~stop_when_complete:false ~source:0 ~assignment
      ~k:3 ~rng ()
  in
  let logs = Option.get r.Cogcast.logs in
  (* Exactly one Got_informed entry per informed non-source node, at the
     recorded slot and label. *)
  Array.iteri
    (fun v node_log ->
      let informs =
        Array.to_list node_log
        |> List.filteri (fun _ e ->
               match e.Cogcast.event with Cogcast.Got_informed _ -> true | _ -> false)
      in
      if v = r.Cogcast.source then check_int "source never informed" 0 (List.length informs)
      else if r.Cogcast.informed.(v) then begin
        check_int "exactly one inform event" 1 (List.length informs);
        let slot = Option.get r.Cogcast.informed_at.(v) in
        let entry = node_log.(slot) in
        (match entry.Cogcast.event with
        | Cogcast.Got_informed { parent } ->
            Alcotest.(check (option int)) "parent agrees" (Some parent) r.Cogcast.parent.(v)
        | _ -> Alcotest.fail "log slot should be the inform event");
        Alcotest.(check (option int)) "label agrees" (Some entry.Cogcast.label)
          r.Cogcast.informed_label.(v)
      end)
    logs;
  (* Each slot's winners are distinct per channel: for every slot, the set of
     (channel, Sent_won) pairs has no duplicates. *)
  for slot = 0 to r.Cogcast.slots_run - 1 do
    let winners = Hashtbl.create 8 in
    Array.iteri
      (fun v node_log ->
        let e = node_log.(slot) in
        match e.Cogcast.event with
        | Cogcast.Sent_won ->
            let channel =
              Assignment.global_of_local assignment ~node:v ~label:e.Cogcast.label
            in
            check "one winner per channel per slot" false (Hashtbl.mem winners channel);
            Hashtbl.replace winners channel ()
        | _ -> ())
      logs
  done

(* --- distribution tree ----------------------------------------------------- *)

let test_tree_valid_and_spanning () =
  List.iter
    (fun kind ->
      let spec = { Topology.n = 40; c = 10; k = 3 } in
      let r = run_on ~seed:6 kind spec in
      let tree = Disttree.of_result r in
      (match Disttree.validate tree with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid tree on %s: %s" (Topology.kind_name kind) e);
      check "spanning" true (Disttree.is_spanning tree))
    Topology.all_kinds

let test_tree_cluster_accounting () =
  let spec = { Topology.n = 50; c = 12; k = 4 } in
  let r = run_on ~seed:7 Topology.Shared_plus_random spec in
  let tree = Disttree.of_result r in
  let total = Array.fold_left ( + ) 0 (Disttree.cluster_sizes tree) in
  check_int "cluster members = n - 1" (spec.Topology.n - 1) total;
  (* Theorem 10's accounting: sum over slots of the largest cluster is <= n. *)
  check "sum of per-slot max clusters <= n" true
    (Disttree.sum_max_cluster_per_slot tree <= spec.Topology.n)

let test_tree_height_bounded_by_slots () =
  let spec = { Topology.n = 30; c = 8; k = 2 } in
  let r = run_on ~seed:8 Topology.Shared_core spec in
  let tree = Disttree.of_result r in
  check "height <= slots" true (Disttree.height tree <= r.Cogcast.slots_run)

(* --- dynamic availability (§7) --------------------------------------------- *)

let test_dynamic_reshuffled () =
  let spec = { Topology.n = 24; c = 8; k = 2 } in
  let availability = Dynamic.reshuffled_shared_core ~seed:(Rng.create 10) spec in
  let max_slots = Complexity.cogcast_slots ~n:24 ~c:8 ~k:2 () in
  let r =
    Cogcast.run ~source:0 ~availability ~rng:(Rng.create 11) ~max_slots ()
  in
  check "completes under per-slot churn" true (r.Cogcast.completed_at <> None)

let test_dynamic_rotating () =
  let spec = { Topology.n = 24; c = 8; k = 3 } in
  let assignment = Topology.shared_plus_random (Rng.create 12) spec in
  let availability = Dynamic.rotating assignment in
  let max_slots = Complexity.cogcast_slots ~n:24 ~c:8 ~k:3 () in
  let r = Cogcast.run ~source:0 ~availability ~rng:(Rng.create 13) ~max_slots () in
  check "completes under label rotation" true (r.Cogcast.completed_at <> None)

(* --- jamming (Theorem 18 route) --------------------------------------------- *)

let test_completes_under_jamming_via_reduction () =
  (* n nodes, all c channels; adversary jams k' < c/2 channels per node per
     slot. Sensing nodes avoid jammed channels via the reduction
     availability; COGCAST completes with overlap c - 2k'. *)
  let n = 16 and big_c = 16 and budget = 5 in
  let jammer = Jammer.random_per_node ~seed:21L ~budget ~num_channels:big_c in
  let availability =
    Jamming_reduction.availability_of_jammer ~shuffle_labels:(Rng.create 14)
      ~num_nodes:n ~num_channels:big_c ~jammer ()
  in
  let k = Jamming_reduction.overlap_guarantee ~num_channels:big_c ~budget in
  let c = big_c - budget in
  let max_slots = 4 * Complexity.cogcast_slots ~n ~c ~k () in
  let r = Cogcast.run ~source:0 ~availability ~rng:(Rng.create 15) ~max_slots () in
  check "completes despite n-uniform jamming" true (r.Cogcast.completed_at <> None)

(* --- the raw-radio composition (footnote 4) ------------------------------------ *)

let decay_emulation =
  Crn_radio.Runner.Emulation { strategy = Crn_radio.Emulation.Decay; session_cap = None }

let test_emulated_cogcast_completes () =
  (* COGCAST over decay-backoff contention sessions on the raw radio:
     completes in a similar number of abstract slots, paying O(log² n) raw
     rounds per slot. *)
  let spec = { Topology.n = 32; c = 8; k = 2 } in
  let assignment = Topology.shared_plus_random (Rng.create 40) spec in
  let max_slots = 4 * Complexity.cogcast_slots ~n:32 ~c:8 ~k:2 () in
  let r =
    Cogcast.run ~backend:decay_emulation ~source:0
      ~availability:(Dynamic.static assignment) ~rng:(Rng.create 41) ~max_slots ()
  in
  check "emulated run completes" true (r.Cogcast.completed_at <> None);
  check "raw rounds >= abstract slots" true
    (r.Cogcast.raw_rounds >= r.Cogcast.slots_run);
  let cap = Crn_radio.Backoff.expected_rounds_bound 32 in
  check "raw rounds within cap * slots" true
    (r.Cogcast.raw_rounds <= cap * r.Cogcast.slots_run)

let test_emulated_tree_still_valid () =
  let spec = { Topology.n = 24; c = 6; k = 3 } in
  let assignment = Topology.shared_core (Rng.create 42) spec in
  let max_slots = 4 * Complexity.cogcast_slots ~n:24 ~c:6 ~k:3 () in
  let r =
    Cogcast.run ~backend:decay_emulation ~source:0
      ~availability:(Dynamic.static assignment) ~rng:(Rng.create 43) ~max_slots ()
  in
  check "complete" true (r.Cogcast.completed_at <> None);
  let tree = Disttree.of_result r in
  (match Disttree.validate tree with
  | Ok () -> ()
  | Error e -> Alcotest.failf "emulated tree invalid: %s" e);
  check "spanning" true (Disttree.is_spanning tree)

(* --- robustness under transient faults (§1 discussion) ----------------------- *)

let test_completes_with_random_naps () =
  (* Each node misses 30% of slots independently; the epidemic slows by a
     constant factor but still completes within an enlarged budget. *)
  let spec = { Topology.n = 32; c = 8; k = 2 } in
  let assignment = Topology.shared_plus_random (Rng.create 30) spec in
  let faults = Crn_radio.Faults.random_naps ~seed:31L ~rate:0.3 in
  let max_slots = 4 * Complexity.cogcast_slots ~n:32 ~c:8 ~k:2 () in
  let r =
    Cogcast.run ~faults ~source:0 ~availability:(Dynamic.static assignment)
      ~rng:(Rng.create 32) ~max_slots ()
  in
  check "completes under 30% naps" true (r.Cogcast.completed_at <> None)

let test_completes_with_duty_cycling () =
  (* Staggered periodic sleep: every node is down 1/4 of the time. *)
  let spec = { Topology.n = 24; c = 6; k = 3 } in
  let assignment = Topology.shared_core (Rng.create 33) spec in
  let faults = Crn_radio.Faults.periodic_nap ~period:8 ~nap:2 ~offset_stride:3 in
  let max_slots = 4 * Complexity.cogcast_slots ~n:24 ~c:6 ~k:3 () in
  let r =
    Cogcast.run ~faults ~source:0 ~availability:(Dynamic.static assignment)
      ~rng:(Rng.create 34) ~max_slots ()
  in
  check "completes under duty cycling" true (r.Cogcast.completed_at <> None)

let test_crashed_node_blocks_only_itself () =
  (* A permanently crashed non-source node is never informed, but everyone
     else still is. *)
  let spec = { Topology.n = 16; c = 6; k = 2 } in
  let assignment = Topology.shared_plus_random (Rng.create 35) spec in
  let faults = Crn_radio.Faults.crash ~node:7 ~from_slot:0 in
  let max_slots = 4 * Complexity.cogcast_slots ~n:16 ~c:6 ~k:2 () in
  let r =
    Cogcast.run ~faults ~source:0 ~availability:(Dynamic.static assignment)
      ~rng:(Rng.create 36) ~max_slots ()
  in
  check "crashed node uninformed" false r.Cogcast.informed.(7);
  check_int "everyone else informed" (spec.Topology.n - 1) r.Cogcast.informed_count

let test_completes_with_staggered_activation () =
  (* Nodes wake up over a window of 50 slots; the epidemic still completes
     (late wakers simply join the audience late). *)
  let spec = { Topology.n = 20; c = 6; k = 2 } in
  let assignment = Topology.shared_plus_random (Rng.create 37) spec in
  let activation = Array.init 20 (fun v -> (v * 13) mod 50) in
  activation.(0) <- 0; (* the source is up from the start *)
  let faults = Crn_radio.Faults.staggered_activation ~activation in
  let max_slots = 50 + (4 * Complexity.cogcast_slots ~n:20 ~c:6 ~k:2 ()) in
  let r =
    Cogcast.run ~faults ~source:0 ~availability:(Dynamic.static assignment)
      ~rng:(Rng.create 38) ~max_slots ()
  in
  check "completes with staggered activation" true (r.Cogcast.completed_at <> None)

(* --- statistical shape (small-scale Theorem 4 sanity) ----------------------- *)

let median_completion ~kind ~spec ~trials =
  let samples =
    Array.init trials (fun seed ->
        let r = run_on ~seed:(100 + seed) kind spec in
        match r.Cogcast.completed_at with
        | Some s -> float_of_int s
        | None -> Alcotest.fail "incomplete run in shape test")
  in
  Crn_stats.Summary.median samples

let test_larger_k_is_faster () =
  let base = { Topology.n = 48; c = 16; k = 1 } in
  let m1 = median_completion ~kind:Topology.Shared_core ~spec:base ~trials:9 in
  let m8 =
    median_completion ~kind:Topology.Shared_core ~spec:{ base with Topology.k = 8 }
      ~trials:9
  in
  check "k=8 at least 2x faster than k=1 (median)" true (m8 *. 2.0 <= m1)

let test_more_channels_is_slower () =
  let small = { Topology.n = 48; c = 8; k = 2 } in
  let large = { Topology.n = 48; c = 32; k = 2 } in
  let ms = median_completion ~kind:Topology.Shared_core ~spec:small ~trials:9 in
  let ml = median_completion ~kind:Topology.Shared_core ~spec:large ~trials:9 in
  check "c=32 at least 2x slower than c=8 (median)" true (ms *. 2.0 <= ml)

let prop_always_completes_within_budget =
  QCheck.Test.make ~name:"COGCAST completes within the Theorem 4 budget" ~count:60
    QCheck.(quad small_int (int_range 2 40) (int_range 2 12) (int_range 1 6))
    (fun (seed, n, c, kk) ->
      let k = 1 + (kk mod c) in
      let spec = { Topology.n; c; k } in
      let rng = Rng.create (seed + 1000) in
      let assignment = Topology.shared_plus_random rng spec in
      let r = Cogcast.run_static ~source:0 ~assignment ~k ~rng () in
      r.Cogcast.completed_at <> None)

let () =
  Alcotest.run "cogcast"
    [
      ( "completion",
        [
          Alcotest.test_case "all topologies" `Quick test_completes_all_topologies;
          Alcotest.test_case "c > n regime" `Quick test_c_bigger_than_n;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "source validation" `Quick test_source_out_of_range;
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic_given_seed;
          Alcotest.test_case "budget respected" `Quick test_budget_not_exceeded;
          Alcotest.test_case "result fields consistent" `Quick test_informed_fields_consistent;
        ] );
      ( "logs",
        [ Alcotest.test_case "logs match outcome" `Quick test_logs_match_outcome ] );
      ( "distribution tree",
        [
          Alcotest.test_case "valid and spanning" `Quick test_tree_valid_and_spanning;
          Alcotest.test_case "cluster accounting" `Quick test_tree_cluster_accounting;
          Alcotest.test_case "height bounded" `Quick test_tree_height_bounded_by_slots;
        ] );
      ( "dynamic model",
        [
          Alcotest.test_case "per-slot reshuffle" `Quick test_dynamic_reshuffled;
          Alcotest.test_case "label rotation" `Quick test_dynamic_rotating;
          Alcotest.test_case "jamming via reduction" `Quick
            test_completes_under_jamming_via_reduction;
        ] );
      ( "raw-radio emulation",
        [
          Alcotest.test_case "completes" `Quick test_emulated_cogcast_completes;
          Alcotest.test_case "tree valid" `Quick test_emulated_tree_still_valid;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "random naps" `Quick test_completes_with_random_naps;
          Alcotest.test_case "duty cycling" `Quick test_completes_with_duty_cycling;
          Alcotest.test_case "crash isolates" `Quick test_crashed_node_blocks_only_itself;
          Alcotest.test_case "staggered activation" `Quick
            test_completes_with_staggered_activation;
        ] );
      ( "shape",
        [
          Alcotest.test_case "larger k faster" `Slow test_larger_k_is_faster;
          Alcotest.test_case "more channels slower" `Slow test_more_channels_is_slower;
          QCheck_alcotest.to_alcotest prop_always_completes_within_budget;
        ] );
    ]
