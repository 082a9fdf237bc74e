(* Tests for COGCOMP (Theorem 10): end-to-end aggregation correctness, the
   per-phase guarantees (Lemmas 5, 7, 9) and phase 4's linear drain. *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Aggregate = Crn_core.Aggregate
module Cogcomp = Crn_core.Cogcomp
module Disttree = Crn_core.Disttree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_sum ?(seed = 1) ?(source = 0) kind spec =
  let rng = Rng.create seed in
  let assignment = Topology.generate kind rng spec in
  let values = Array.init spec.Topology.n (fun i -> (i * 13) + 1) in
  let res =
    Cogcomp.run ~monoid:Aggregate.sum ~values ~source ~assignment
      ~k:spec.Topology.k ~rng ()
  in
  (res, Array.fold_left ( + ) 0 values)

(* --- end-to-end correctness ------------------------------------------------ *)

let test_sum_all_topologies () =
  List.iter
    (fun kind ->
      List.iter
        (fun spec ->
          for seed = 1 to 3 do
            let res, expect = run_sum ~seed kind spec in
            if not res.Cogcomp.complete then
              Alcotest.failf "incomplete on %s (n=%d c=%d k=%d seed=%d)"
                (Topology.kind_name kind) spec.Topology.n spec.Topology.c
                spec.Topology.k seed;
            Alcotest.(check (option int))
              (Printf.sprintf "sum on %s" (Topology.kind_name kind))
              (Some expect) res.Cogcomp.root_value
          done)
        [
          { Topology.n = 2; c = 4; k = 2 };
          { Topology.n = 24; c = 8; k = 2 };
          { Topology.n = 10; c = 20; k = 5 };
          { Topology.n = 50; c = 6; k = 1 };
        ])
    Topology.all_kinds

let test_monoids () =
  let spec = { Topology.n = 30; c = 8; k = 2 } in
  let assignment = Topology.shared_plus_random (Rng.create 5) spec in
  let ints = Array.init 30 (fun i -> (i * 17) mod 23) in
  let run monoid values =
    Cogcomp.run ~monoid ~values ~source:0 ~assignment ~k:2 ~rng:(Rng.create 6) ()
  in
  let max_res = run Aggregate.max_int ints in
  Alcotest.(check (option int)) "max" (Some (Array.fold_left max ints.(0) ints))
    max_res.Cogcomp.root_value;
  let min_res = run Aggregate.min_int ints in
  Alcotest.(check (option int)) "min" (Some (Array.fold_left min ints.(0) ints))
    min_res.Cogcomp.root_value;
  let count_res = run Aggregate.count (Array.make 30 1) in
  Alcotest.(check (option int)) "count" (Some 30) count_res.Cogcomp.root_value

let test_multiset_every_value_arrives () =
  (* The multiset monoid proves each node's value reaches the root exactly
     once, independent of combine order. *)
  let spec = { Topology.n = 25; c = 10; k = 3 } in
  let assignment = Topology.shared_core (Rng.create 7) spec in
  let values = Array.init 25 (fun i -> [ i ]) in
  let res =
    Cogcomp.run ~monoid:Aggregate.multiset ~values ~source:3 ~assignment ~k:3
      ~rng:(Rng.create 8) ()
  in
  check "complete" true res.Cogcomp.complete;
  let collected = Option.get res.Cogcomp.root_value in
  Alcotest.(check (list int)) "exactly 0..24" (List.init 25 (fun i -> i)) collected

let test_nonzero_source () =
  let spec = { Topology.n = 20; c = 8; k = 4 } in
  let res, expect = run_sum ~seed:9 ~source:13 Topology.Clustered spec in
  check "complete" true res.Cogcomp.complete;
  Alcotest.(check (option int)) "sum to non-zero source" (Some expect)
    res.Cogcomp.root_value

let test_single_node () =
  let spec = { Topology.n = 1; c = 3; k = 1 } in
  let res, expect = run_sum Topology.Identical spec in
  check "complete" true res.Cogcomp.complete;
  Alcotest.(check (option int)) "n=1 root value" (Some expect) res.Cogcomp.root_value;
  check_int "phase4 trivial" 0 res.Cogcomp.phase4_slots

let test_values_length_mismatch () =
  let spec = { Topology.n = 4; c = 4; k = 2 } in
  let assignment = Topology.identical (Rng.create 1) spec in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Cogcomp.run: values length mismatch") (fun () ->
      ignore
        (Cogcomp.run ~monoid:Aggregate.sum ~values:[| 1; 2 |] ~source:0 ~assignment
           ~k:2 ~rng:(Rng.create 1) ()));
  (* Every other bad argument is rejected under the entry point's name
     before any slot runs: the trace stays empty. *)
  let rejects name msg run =
    let trace = Crn_radio.Trace.create () in
    Alcotest.check_raises name (Invalid_argument ("Cogcomp.run: " ^ msg)) (fun () ->
        ignore (run trace));
    check_int (name ^ ": no slot ran") 0
      (Crn_radio.Trace.fold (fun acc _ -> acc + 1) 0 trace)
  in
  let run ?budget_factor ?max_phase4_steps ?(source = 0) trace =
    Cogcomp.run ?budget_factor ?max_phase4_steps ~trace ~monoid:Aggregate.sum
      ~values:[| 1; 2; 3; 4 |] ~source ~assignment ~k:2 ~rng:(Rng.create 1) ()
  in
  rejects "source past the end" "source out of range" (run ~source:4);
  rejects "negative source" "source out of range" (run ~source:(-1));
  rejects "negative phase-4 cap" "max_phase4_steps must be >= 0"
    (run ~max_phase4_steps:(-1));
  List.iter
    (fun factor ->
      rejects
        (Printf.sprintf "budget factor %g" factor)
        "budget factor must be finite and > 0"
        (run ~budget_factor:factor))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let test_incomplete_when_budget_tiny () =
  (* With a starved phase-1 budget, the run must report incomplete and no
     root value rather than a wrong one. *)
  let spec = { Topology.n = 64; c = 16; k = 1 } in
  let assignment = Topology.shared_core (Rng.create 2) spec in
  let values = Array.make 64 1 in
  let res =
    Cogcomp.run ~budget_factor:0.05 ~monoid:Aggregate.sum ~values ~source:0
      ~assignment ~k:1 ~rng:(Rng.create 3) ()
  in
  check "incomplete" false res.Cogcomp.complete;
  Alcotest.(check (option int)) "no root value" None res.Cogcomp.root_value

(* --- phase structure --------------------------------------------------------- *)

let test_phase_lengths () =
  let spec = { Topology.n = 32; c = 8; k = 2 } in
  let res, _ = run_sum ~seed:11 Topology.Shared_plus_random spec in
  check_int "phase 2 is exactly n slots" 32 res.Cogcomp.phase2_slots;
  check_int "phase 3 mirrors phase 1" res.Cogcomp.phase1_slots res.Cogcomp.phase3_slots;
  check_int "total adds up"
    (res.Cogcomp.phase1_slots + res.Cogcomp.phase2_slots + res.Cogcomp.phase3_slots
    + res.Cogcomp.phase4_slots)
    res.Cogcomp.total_slots;
  check "phase 4 slots are 3 per step" true (res.Cogcomp.phase4_slots mod 3 = 0)

let test_mediators_unique_nonsource () =
  let spec = { Topology.n = 40; c = 10; k = 3 } in
  let res, _ = run_sum ~seed:12 Topology.Shared_core spec in
  check "complete" true res.Cogcomp.complete;
  (* Mediators are distinct non-source cluster members; at most one per used
     channel, and at least one exists when n > 1. *)
  let ms = res.Cogcomp.mediators in
  check "at least one mediator" true (ms <> []);
  check "source is never a mediator" true (not (List.mem 0 ms));
  check "sorted distinct" true (List.sort_uniq compare ms = ms);
  check "at most one per channel (<= c distinct used channels)" true
    (List.length ms <= spec.Topology.c * spec.Topology.n)

let test_everyone_terminates () =
  let spec = { Topology.n = 48; c = 12; k = 2 } in
  let res, _ = run_sum ~seed:13 Topology.Shared_plus_random spec in
  check "all nodes terminated" true (Array.for_all (fun b -> b) res.Cogcomp.terminated)

let test_phase4_linear_in_n () =
  (* Theorem 10: phase 4 drains in O(n) steps. Allow a generous constant. *)
  List.iter
    (fun n ->
      let spec = { Topology.n; c = 8; k = 2 } in
      let res, _ = run_sum ~seed:14 Topology.Shared_core spec in
      check "complete" true res.Cogcomp.complete;
      check
        (Printf.sprintf "phase4 steps <= 4n at n=%d" n)
        true
        (res.Cogcomp.phase4_steps <= 4 * n))
    [ 16; 32; 64; 128 ]

let test_tree_in_result_valid () =
  let spec = { Topology.n = 36; c = 9; k = 3 } in
  let res, _ = run_sum ~seed:15 Topology.Pairwise_private spec in
  (match Disttree.validate res.Cogcomp.tree with
  | Ok () -> ()
  | Error e -> Alcotest.failf "tree invalid: %s" e);
  check "spanning" true (Disttree.is_spanning res.Cogcomp.tree)

let test_capacity_lower_bound () =
  (* §5 discussion: when all nodes share the same k channels and each
     channel carries one message per slot, aggregation needs Omega(n/k)
     slots. In phase 4 each step delivers at most one value per channel, so
     steps >= (n-1)/k on the identical topology with c = k. *)
  let n = 100 and k = 4 in
  let spec = { Topology.n; c = k; k } in
  let assignment = Topology.identical (Rng.create 20) spec in
  let values = Array.init n (fun i -> i) in
  let res =
    Cogcomp.run ~monoid:Aggregate.sum ~values ~source:0 ~assignment ~k
      ~rng:(Rng.create 21) ()
  in
  check "complete" true res.Cogcomp.complete;
  check
    (Printf.sprintf "phase4 steps (%d) >= (n-1)/k (%d)" res.Cogcomp.phase4_steps
       ((n - 1) / k))
    true
    (res.Cogcomp.phase4_steps >= (n - 1) / k)

(* --- ablation & message-size accounting ------------------------------------------ *)

let test_unmediated_still_correct () =
  (* Ablating the mediators must not change the result, only the time. *)
  List.iter
    (fun seed ->
      let spec = { Topology.n = 30; c = 8; k = 2 } in
      let assignment = Topology.shared_plus_random (Rng.create seed) spec in
      let values = Array.init 30 (fun i -> i * 2) in
      let res =
        Cogcomp.run ~mediated:false ~monoid:Aggregate.sum ~values ~source:0
          ~assignment ~k:2 ~rng:(Rng.create (seed + 50)) ()
      in
      check "unmediated complete" true res.Cogcomp.complete;
      Alcotest.(check (option int)) "unmediated sum" (Some (Array.fold_left ( + ) 0 values))
        res.Cogcomp.root_value)
    [ 1; 2; 3; 4; 5 ]

let test_unmediated_not_faster () =
  (* Without the announcement slot gating senders, contention can only
     increase the number of phase-4 steps (never decrease it by more than
     noise). Compare means over several seeds. *)
  let spec = { Topology.n = 80; c = 8; k = 2 } in
  let steps mediated seed =
    let assignment = Topology.shared_core (Rng.create seed) spec in
    let values = Array.init 80 (fun i -> i) in
    let res =
      Cogcomp.run ~mediated ~monoid:Aggregate.sum ~values ~source:0 ~assignment
        ~k:2 ~rng:(Rng.create (seed + 90)) ()
    in
    check "complete" true res.Cogcomp.complete;
    float_of_int res.Cogcomp.phase4_steps
  in
  let mean f = Array.init 7 (fun i -> f (300 + i)) |> Crn_stats.Summary.mean in
  let with_med = mean (steps true) and without_med = mean (steps false) in
  check
    (Printf.sprintf "unmediated (%.1f) >= 0.9x mediated (%.1f)" without_med with_med)
    true
    (without_med >= 0.9 *. with_med)

let test_payload_digest_constant () =
  (* §5 discussion: with an associative fold, every message carries one
     digest — measure = 1 per payload. *)
  let spec = { Topology.n = 40; c = 10; k = 3 } in
  let assignment = Topology.shared_plus_random (Rng.create 7) spec in
  let values = Array.init 40 (fun i -> i) in
  let res =
    Cogcomp.run ~measure:(fun _ -> 1) ~monoid:Aggregate.sum ~values ~source:0
      ~assignment ~k:3 ~rng:(Rng.create 8) ()
  in
  check "complete" true res.Cogcomp.complete;
  check_int "digest payload is constant" 1 res.Cogcomp.max_payload;
  check "total counts one per send" true (res.Cogcomp.total_payload >= 39)

let test_payload_multiset_linear () =
  (* Forwarding raw value lists makes the biggest message carry a whole
     subtree — Omega(largest subtree) values. *)
  let spec = { Topology.n = 40; c = 10; k = 3 } in
  let assignment = Topology.shared_plus_random (Rng.create 9) spec in
  let values = Array.init 40 (fun i -> [ i ]) in
  let res =
    Cogcomp.run ~measure:List.length ~monoid:Aggregate.multiset ~values ~source:0
      ~assignment ~k:3 ~rng:(Rng.create 10) ()
  in
  check "complete" true res.Cogcomp.complete;
  (* The source's children carry their whole subtrees; with n = 40 the
     largest must exceed any constant digest. *)
  check
    (Printf.sprintf "multiset max payload (%d) grows with subtree size"
       res.Cogcomp.max_payload)
    true
    (res.Cogcomp.max_payload >= 5);
  check_int "no measure -> zero" 0
    (Cogcomp.run ~monoid:Aggregate.sum ~values:(Array.init 40 (fun i -> i))
       ~source:0 ~assignment ~k:3 ~rng:(Rng.create 11) ())
      .Cogcomp.max_payload

let decay_emulation =
  Crn_radio.Runner.Emulation { strategy = Crn_radio.Emulation.Decay; session_cap = None }

let test_fully_emulated_cogcomp () =
  (* The entire four-phase protocol over the raw collision radio: correct
     result, raw-round cost bounded by cap x total abstract slots. *)
  List.iter
    (fun seed ->
      let spec = { Topology.n = 24; c = 8; k = 3 } in
      let assignment = Topology.shared_plus_random (Rng.create seed) spec in
      let values = Array.init 24 (fun i -> i + 2) in
      let res =
        Cogcomp.run ~backend:decay_emulation ~monoid:Aggregate.sum ~values
          ~source:0 ~assignment ~k:3 ~rng:(Rng.create (seed + 60)) ()
      in
      let raw_rounds = res.Cogcomp.raw_rounds in
      check "emulated complete" true res.Cogcomp.complete;
      Alcotest.(check (option int)) "emulated sum" (Some (Array.fold_left ( + ) 0 values))
        res.Cogcomp.root_value;
      check "raw rounds >= total slots" true (raw_rounds >= res.Cogcomp.total_slots);
      let cap = Crn_radio.Backoff.expected_rounds_bound 24 in
      check "raw rounds bounded" true (raw_rounds <= cap * res.Cogcomp.total_slots))
    [ 1; 2; 3 ]

let test_emulated_matches_abstract_value () =
  (* Abstract and emulated runs on the same network agree on the aggregate
     (they share nothing but the inputs). *)
  let spec = { Topology.n = 20; c = 6; k = 2 } in
  let assignment = Topology.shared_core (Rng.create 70) spec in
  let values = Array.init 20 (fun i -> (i * 11) mod 17) in
  let a =
    Cogcomp.run ~monoid:Aggregate.sum ~values ~source:0 ~assignment ~k:2
      ~rng:(Rng.create 71) ()
  in
  let b =
    Cogcomp.run ~backend:decay_emulation ~monoid:Aggregate.sum ~values ~source:0
      ~assignment ~k:2 ~rng:(Rng.create 72) ()
  in
  Alcotest.(check (option int)) "same value" a.Cogcomp.root_value b.Cogcomp.root_value

(* --- properties ---------------------------------------------------------------- *)

let prop_sum_correct =
  let kinds = Array.of_list Topology.all_kinds in
  QCheck.Test.make ~name:"COGCOMP computes the exact sum" ~count:40
    QCheck.(quad small_int (int_range 2 30) (int_range 2 10) (int_range 1 5))
    (fun (seed, n, c, kk) ->
      let k = 1 + (kk mod c) in
      let kind = kinds.(seed mod Array.length kinds) in
      let spec = { Topology.n; c; k } in
      let rng = Rng.create (seed + 500) in
      let assignment = Topology.generate kind rng spec in
      let values = Array.init n (fun i -> i + seed) in
      let res =
        Cogcomp.run ~monoid:Aggregate.sum ~values ~source:(seed mod n) ~assignment
          ~k ~rng ()
      in
      res.Cogcomp.complete
      && res.Cogcomp.root_value = Some (Array.fold_left ( + ) 0 values))

let prop_multiset_complete =
  QCheck.Test.make ~name:"every node's value reaches the root exactly once" ~count:25
    QCheck.(triple small_int (int_range 2 20) (int_range 2 8))
    (fun (seed, n, c) ->
      let k = max 1 (c / 2) in
      let spec = { Topology.n; c; k } in
      let rng = Rng.create (seed + 900) in
      let assignment = Topology.shared_plus_random rng spec in
      let values = Array.init n (fun i -> [ i ]) in
      let res =
        Cogcomp.run ~monoid:Aggregate.multiset ~values ~source:0 ~assignment ~k ~rng ()
      in
      res.Cogcomp.complete
      && res.Cogcomp.root_value = Some (List.init n (fun i -> i)))

let () =
  Alcotest.run "cogcomp"
    [
      ( "correctness",
        [
          Alcotest.test_case "sum on all topologies" `Quick test_sum_all_topologies;
          Alcotest.test_case "max/min/count monoids" `Quick test_monoids;
          Alcotest.test_case "multiset completeness" `Quick test_multiset_every_value_arrives;
          Alcotest.test_case "non-zero source" `Quick test_nonzero_source;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "values length mismatch" `Quick test_values_length_mismatch;
          Alcotest.test_case "tiny budget -> incomplete" `Quick test_incomplete_when_budget_tiny;
        ] );
      ( "phases",
        [
          Alcotest.test_case "phase lengths" `Quick test_phase_lengths;
          Alcotest.test_case "mediators" `Quick test_mediators_unique_nonsource;
          Alcotest.test_case "everyone terminates" `Quick test_everyone_terminates;
          Alcotest.test_case "phase 4 linear" `Slow test_phase4_linear_in_n;
          Alcotest.test_case "tree valid" `Quick test_tree_in_result_valid;
          Alcotest.test_case "capacity lower bound" `Quick test_capacity_lower_bound;
        ] );
      ( "raw-radio emulation",
        [
          Alcotest.test_case "fully emulated" `Quick test_fully_emulated_cogcomp;
          Alcotest.test_case "matches abstract value" `Quick
            test_emulated_matches_abstract_value;
        ] );
      ( "ablation & payloads",
        [
          Alcotest.test_case "unmediated correct" `Quick test_unmediated_still_correct;
          Alcotest.test_case "unmediated not faster" `Slow test_unmediated_not_faster;
          Alcotest.test_case "digest payload constant" `Quick test_payload_digest_constant;
          Alcotest.test_case "multiset payload linear" `Quick test_payload_multiset_linear;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_sum_correct; prop_multiset_complete ] );
    ]
