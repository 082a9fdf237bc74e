(* Tests for the rendezvous baselines: pairwise random hopping, the
   rendezvous broadcast/aggregation straw-men and the hop-together scan. *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Assignment = Crn_channel.Assignment
module Random_hop = Crn_rendezvous.Random_hop
module Broadcast_baseline = Crn_rendezvous.Broadcast_baseline
module Seq_scan = Crn_rendezvous.Seq_scan
module Aggregation_baseline = Crn_rendezvous.Aggregation_baseline
module Cogcast = Crn_core.Cogcast
module Aggregate = Crn_core.Aggregate
module Complexity = Crn_core.Complexity
module Dynamic = Crn_channel.Dynamic
module Runner = Crn_radio.Runner

let check = Alcotest.(check bool)

(* Every machine below runs through the one driver, on the engine backend
   of a static spectrum, and reports its snapshot. *)
let drive ~assignment ~rng machine ~max_slots =
  let runner = Runner.make ~availability:(Dynamic.static assignment) ~rng () in
  fst (Runner.drive runner machine ~max_slots)

(* The baselines' default budget: 8x the closed-form bound. *)
let budget ~assignment ~k bound =
  let n = Assignment.num_nodes assignment in
  let c = Assignment.channels_per_node assignment in
  int_of_float (Float.ceil (8.0 *. bound ~n ~c ~k))

let broadcast_baseline ~assignment ~k ~rng =
  drive ~assignment ~rng
    (Broadcast_baseline.machine ~source:0
       ~availability:(Dynamic.static assignment) ~rng)
    ~max_slots:(budget ~assignment ~k Complexity.rendezvous_broadcast)

let aggregation_baseline ?max_slots ~values ~assignment ~k ~rng () =
  let max_slots =
    match max_slots with
    | Some m -> m
    | None -> budget ~assignment ~k Complexity.rendezvous_aggregation
  in
  drive ~assignment ~rng
    (Aggregation_baseline.machine ~monoid:Aggregate.sum ~values ~source:0
       ~availability:(Dynamic.static assignment) ~rng ())
    ~max_slots

(* --- pairwise rendezvous --------------------------------------------------- *)

let test_pair_meets () =
  let spec = { Topology.n = 2; c = 8; k = 2 } in
  let assignment = Topology.shared_core (Rng.create 1) spec in
  match Random_hop.pair ~rng:(Rng.create 2) ~assignment ~u:0 ~v:1 ~max_slots:100_000 with
  | Some slot -> check "positive slot" true (slot >= 1)
  | None -> Alcotest.fail "pair should rendezvous"

let test_pair_identical_sets_meet_fast () =
  (* k = c: meeting probability per slot is 1/c, expectation c. *)
  let spec = { Topology.n = 2; c = 4; k = 4 } in
  let assignment = Topology.identical (Rng.create 3) spec in
  let rng = Rng.create 4 in
  let trials = 400 in
  let total = ref 0 in
  for _ = 1 to trials do
    match Random_hop.pair ~rng ~assignment ~u:0 ~v:1 ~max_slots:10_000 with
    | Some slot -> total := !total + slot
    | None -> Alcotest.fail "must meet"
  done;
  let mean = float_of_int !total /. float_of_int trials in
  check "mean near c = 4" true (mean > 3.0 && mean < 5.0)

let test_pair_mean_scales_with_c2_over_k () =
  (* Shared-core with c=12, k=3: per-slot hit probability is exactly
     k/c² = 3/144, so the expectation is 48. *)
  let spec = { Topology.n = 2; c = 12; k = 3 } in
  let assignment = Topology.shared_core (Rng.create 5) spec in
  let rng = Rng.create 6 in
  let trials = 600 in
  let total = ref 0 in
  for _ = 1 to trials do
    match Random_hop.pair ~rng ~assignment ~u:0 ~v:1 ~max_slots:100_000 with
    | Some slot -> total := !total + slot
    | None -> Alcotest.fail "must meet"
  done;
  let mean = float_of_int !total /. float_of_int trials in
  check "mean near c^2/k = 48" true (mean > 40.0 && mean < 56.0)

let test_source_meets_all () =
  let spec = { Topology.n = 10; c = 6; k = 2 } in
  let assignment = Topology.shared_plus_random (Rng.create 7) spec in
  match
    Random_hop.source_meets_all ~rng:(Rng.create 8) ~assignment ~source:0
      ~max_slots:1_000_000
  with
  | Some slots -> check "positive" true (slots >= 1)
  | None -> Alcotest.fail "source should meet everyone"

(* --- rendezvous broadcast baseline ------------------------------------------ *)

let test_baseline_broadcast_completes () =
  let spec = { Topology.n = 20; c = 8; k = 2 } in
  let assignment = Topology.shared_core (Rng.create 9) spec in
  let r =
    broadcast_baseline ~assignment ~k:2 ~rng:(Rng.create 10)
  in
  check "completes" true (r.Broadcast_baseline.completed_at <> None);
  check "everyone informed" true
    (Array.for_all (fun b -> b) r.Broadcast_baseline.informed)

let test_cogcast_beats_baseline () =
  (* With n >= c the epidemic should beat source-only rendezvous clearly;
     compare medians over a few seeds. *)
  let spec = { Topology.n = 64; c = 16; k = 2 } in
  let trials = 7 in
  let cog = Array.make trials 0.0 and base = Array.make trials 0.0 in
  for i = 0 to trials - 1 do
    let assignment = Topology.shared_core (Rng.create (20 + i)) spec in
    let r1 =
      Cogcast.run_static ~source:0 ~assignment ~k:2 ~rng:(Rng.create (40 + i)) ()
    in
    let r2 =
      broadcast_baseline ~assignment ~k:2 ~rng:(Rng.create (60 + i))
    in
    (match (r1.Cogcast.completed_at, r2.Broadcast_baseline.completed_at) with
    | Some a, Some b ->
        cog.(i) <- float_of_int a;
        base.(i) <- float_of_int b
    | _ -> Alcotest.fail "both must complete")
  done;
  let mc = Crn_stats.Summary.median cog and mb = Crn_stats.Summary.median base in
  check
    (Printf.sprintf "epidemic (%.0f) at least 3x faster than baseline (%.0f)" mc mb)
    true
    (mc *. 3.0 <= mb)

(* --- hop-together scan -------------------------------------------------------- *)

let test_seq_scan_completes_shared_core () =
  let spec = { Topology.n = 6; c = 36; k = 35 } in
  let assignment =
    Assignment.permute_channels (Rng.create 11)
      (Topology.shared_core ~global_labels:true (Rng.create 12) spec)
  in
  let big_c = Assignment.num_channels assignment in
  let r =
    drive ~assignment ~rng:(Rng.create 13)
      (Seq_scan.machine ~source:0 ~assignment)
      ~max_slots:(4 * big_c)
  in
  check "scan completes" true (r.Seq_scan.completed_at <> None)

let test_seq_scan_fast_when_k_dense () =
  (* §6's example regime: c ≈ n², k = c - 1. Expected completion ≈ C/k ≈ 1-2
     slots; allow a loose 4·C/k margin, still far below COGCAST's budget. *)
  let n = 6 in
  let c = n * n in
  let k = c - 1 in
  let spec = { Topology.n; c; k } in
  let totals = ref 0 in
  let trials = 10 in
  for i = 0 to trials - 1 do
    let assignment =
      Assignment.permute_channels (Rng.create (30 + i))
        (Topology.shared_core ~global_labels:true (Rng.create (50 + i)) spec)
    in
    let big_c = Assignment.num_channels assignment in
    let r =
      drive ~assignment ~rng:(Rng.create (70 + i))
        (Seq_scan.machine ~source:0 ~assignment)
        ~max_slots:(8 * big_c)
    in
    match r.Seq_scan.completed_at with
    | Some s -> totals := !totals + s
    | None -> Alcotest.fail "scan must complete"
  done;
  let mean = float_of_int !totals /. float_of_int trials in
  let big_c = k + (n * (c - k)) in
  check
    (Printf.sprintf "mean %.1f within 4*C/k = %.1f" mean
       (4.0 *. float_of_int big_c /. float_of_int k))
    true
    (mean <= 4.0 *. float_of_int big_c /. float_of_int k)

(* --- rendezvous aggregation baseline ------------------------------------------- *)

let test_baseline_aggregation_correct () =
  let spec = { Topology.n = 16; c = 6; k = 2 } in
  let assignment = Topology.shared_core (Rng.create 14) spec in
  let values = Array.init 16 (fun i -> i * 3) in
  let r =
    aggregation_baseline ~values ~assignment ~k:2 ~rng:(Rng.create 15) ()
  in
  check "completes" true (r.Aggregation_baseline.completed_at <> None);
  Alcotest.(check (option int)) "exact sum" (Some (Array.fold_left ( + ) 0 values))
    r.Aggregation_baseline.root_value

let test_baseline_aggregation_incomplete_reports_none () =
  let spec = { Topology.n = 32; c = 12; k = 1 } in
  let assignment = Topology.shared_core (Rng.create 16) spec in
  let values = Array.make 32 1 in
  let r =
    aggregation_baseline ~max_slots:3 ~values ~assignment ~k:1
      ~rng:(Rng.create 17) ()
  in
  check "not complete in 3 slots" true (r.Aggregation_baseline.completed_at = None);
  Alcotest.(check (option int)) "no value claimed" None r.Aggregation_baseline.root_value

(* --- deterministic schedules ---------------------------------------------------- *)

module Deterministic = Crn_rendezvous.Deterministic

let identical_net ~n ~c =
  Topology.identical ~global_labels:true (Rng.create 1) { Topology.n; c; k = c }

let test_prime_helper () =
  List.iter
    (fun (n, p) -> Alcotest.(check int) (Printf.sprintf "prime >= %d" n) p
        (Deterministic.smallest_prime_geq n))
    [ (0, 2); (2, 2); (3, 3); (4, 5); (10, 11); (14, 17); (31, 31); (32, 37) ]

let test_schedules_stay_in_set () =
  (* Every schedule must always pick a channel the node owns. *)
  let a =
    Topology.shared_core ~global_labels:true (Rng.create 2)
      { Topology.n = 5; c = 7; k = 3 }
  in
  let p = Deterministic.smallest_prime_geq (Assignment.num_channels a) in
  for node = 0 to 4 do
    List.iter
      (fun schedule ->
        for slot = 0 to (4 * p * p) - 1 do
          ignore (Deterministic.channel_of_schedule a ~node schedule ~slot)
        done)
      [
        Deterministic.jump_stay a ~node;
        Deterministic.generated_orthogonal a ~node;
        Deterministic.modular_clock a ~node ~rate:(1 + (node mod 6));
      ]
  done

let test_gos_meets_under_every_shift () =
  (* The published GOS guarantee: the sequence meets itself within one
     period under any relative shift. Exhaustive over shifts, c = 2..8. *)
  for c = 2 to 8 do
    let a = identical_net ~n:2 ~c in
    let period = c * (c + 1) in
    for d = 0 to period - 1 do
      let u = Deterministic.generated_orthogonal a ~node:0 in
      let v = Deterministic.generated_orthogonal ~phase:d a ~node:1 in
      match Deterministic.pair_rendezvous a ~u ~v ~max_slots:period with
      | Some _ -> ()
      | None -> Alcotest.failf "GOS missed at c=%d shift=%d" c d
    done
  done

let test_modular_clock_distinct_rates () =
  (* Exhaustive over distinct rate pairs: rendezvous within 4p² slots. *)
  for c = 2 to 10 do
    let a = identical_net ~n:2 ~c in
    let p = Deterministic.smallest_prime_geq c in
    for ru = 1 to p - 1 do
      for rv = 1 to p - 1 do
        if ru <> rv then begin
          let u = Deterministic.modular_clock a ~node:0 ~rate:ru in
          let v = Deterministic.modular_clock a ~node:1 ~rate:rv in
          match Deterministic.pair_rendezvous a ~u ~v ~max_slots:(4 * p * p) with
          | Some _ -> ()
          | None -> Alcotest.failf "MC missed at c=%d rates (%d,%d)" c ru rv
        end
      done
    done
  done

let test_modular_clock_equal_rates_never_meet () =
  (* The documented weakness: equal rates with offsets differing mod p
     never rendezvous. *)
  let c = 5 in
  let a = identical_net ~n:2 ~c in
  let u = Deterministic.modular_clock a ~node:0 ~rate:2 in
  let v = Deterministic.modular_clock a ~node:1 ~rate:2 in
  Alcotest.(check (option int)) "parallel clocks never meet" None
    (Deterministic.pair_rendezvous a ~u ~v ~max_slots:10_000)

let test_jump_stay_pairs () =
  (* Identical sets and shared-core sets: all pairs meet within 9P². *)
  for c = 2 to 8 do
    let a = identical_net ~n:4 ~c in
    let p = Deterministic.smallest_prime_geq c in
    for u = 0 to 2 do
      for v = u + 1 to 3 do
        match
          Deterministic.pair_rendezvous a
            ~u:(Deterministic.jump_stay a ~node:u)
            ~v:(Deterministic.jump_stay a ~node:v)
            ~max_slots:(9 * p * p)
        with
        | Some _ -> ()
        | None -> Alcotest.failf "JS missed on identical c=%d pair (%d,%d)" c u v
      done
    done
  done;
  List.iter
    (fun (c, k, seed) ->
      let a =
        Topology.shared_core ~global_labels:true (Rng.create seed)
          { Topology.n = 4; c; k }
      in
      let p = Deterministic.smallest_prime_geq (Assignment.num_channels a) in
      for u = 0 to 2 do
        for v = u + 1 to 3 do
          match
            Deterministic.pair_rendezvous a
              ~u:(Deterministic.jump_stay a ~node:u)
              ~v:(Deterministic.jump_stay a ~node:v)
              ~max_slots:(9 * p * p)
          with
          | Some _ -> ()
          | None -> Alcotest.failf "JS missed on shared-core c=%d k=%d (%d,%d)" c k u v
        done
      done)
    [ (4, 1, 3); (6, 2, 4); (8, 4, 5); (10, 3, 6) ]

let test_deterministic_broadcast_completes () =
  let a =
    Topology.shared_core ~global_labels:true (Rng.create 7)
      { Topology.n = 16; c = 8; k = 3 }
  in
  let r =
    drive ~assignment:a ~rng:(Rng.create 8)
      (Deterministic.machine ~make_schedule:Deterministic.jump_stay ~source:0
         ~assignment:a)
      ~max_slots:100_000
  in
  if r.Deterministic.completed_at = None then
    Alcotest.fail "jump-stay broadcast failed"

let prop_jump_stay_always_meets =
  QCheck.Test.make ~name:"jump-stay always meets on shared-core pairs" ~count:40
    QCheck.(triple small_int (int_range 2 10) (int_range 1 9))
    (fun (seed, c, kk) ->
      let k = 1 + (kk mod c) in
      let a =
        Topology.shared_core ~global_labels:true (Rng.create (seed + 600))
          { Topology.n = 2; c; k }
      in
      let p = Deterministic.smallest_prime_geq (Assignment.num_channels a) in
      Deterministic.pair_rendezvous a
        ~u:(Deterministic.jump_stay a ~node:0)
        ~v:(Deterministic.jump_stay a ~node:1)
        ~max_slots:(9 * p * p)
      <> None)

let prop_baselines_complete =
  QCheck.Test.make ~name:"baselines complete on random shared+random networks" ~count:20
    QCheck.(triple small_int (int_range 2 16) (int_range 2 8))
    (fun (seed, n, c) ->
      let k = max 1 (c / 2) in
      let spec = { Topology.n; c; k } in
      let assignment = Topology.shared_plus_random (Rng.create (seed + 300)) spec in
      let b = broadcast_baseline ~assignment ~k ~rng:(Rng.create (seed + 301)) in
      let a =
        aggregation_baseline ~values:(Array.make n 2) ~assignment ~k
          ~rng:(Rng.create (seed + 302)) ()
      in
      b.Broadcast_baseline.completed_at <> None
      && a.Aggregation_baseline.root_value = Some (2 * n))

let () =
  Alcotest.run "rendezvous"
    [
      ( "pairwise",
        [
          Alcotest.test_case "pair meets" `Quick test_pair_meets;
          Alcotest.test_case "identical sets mean ~ c" `Quick
            test_pair_identical_sets_meet_fast;
          Alcotest.test_case "shared-core mean ~ c^2/k" `Slow
            test_pair_mean_scales_with_c2_over_k;
          Alcotest.test_case "source meets all" `Quick test_source_meets_all;
        ] );
      ( "broadcast baseline",
        [
          Alcotest.test_case "completes" `Quick test_baseline_broadcast_completes;
          Alcotest.test_case "COGCAST beats it" `Slow test_cogcast_beats_baseline;
        ] );
      ( "hop-together scan",
        [
          Alcotest.test_case "completes" `Quick test_seq_scan_completes_shared_core;
          Alcotest.test_case "O(C/k) when k dense" `Quick test_seq_scan_fast_when_k_dense;
        ] );
      ( "deterministic schedules",
        [
          Alcotest.test_case "prime helper" `Quick test_prime_helper;
          Alcotest.test_case "schedules stay in set" `Quick test_schedules_stay_in_set;
          Alcotest.test_case "GOS meets under every shift" `Quick
            test_gos_meets_under_every_shift;
          Alcotest.test_case "MC distinct rates meet" `Quick test_modular_clock_distinct_rates;
          Alcotest.test_case "MC equal rates never meet" `Quick
            test_modular_clock_equal_rates_never_meet;
          Alcotest.test_case "jump-stay pairs meet" `Quick test_jump_stay_pairs;
          Alcotest.test_case "deterministic broadcast" `Quick
            test_deterministic_broadcast_completes;
          QCheck_alcotest.to_alcotest prop_jump_stay_always_meets;
        ] );
      ( "aggregation baseline",
        [
          Alcotest.test_case "correct sum" `Quick test_baseline_aggregation_correct;
          Alcotest.test_case "incomplete -> None" `Quick
            test_baseline_aggregation_incomplete_reports_none;
          QCheck_alcotest.to_alcotest prop_baselines_complete;
        ] );
    ]
