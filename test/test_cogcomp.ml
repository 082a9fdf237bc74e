(* Tests for COGCOMP (Theorem 10): end-to-end aggregation correctness, the
   per-phase guarantees (Lemmas 5, 7, 9) and phase 4's linear drain. *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Aggregate = Crn_core.Aggregate
module Cogcomp = Crn_core.Cogcomp
module Disttree = Crn_core.Disttree
module Trace = Crn_radio.Trace
module Runner = Crn_radio.Runner
module Emulation = Crn_radio.Emulation
module Faults = Crn_radio.Faults
module Jammer = Crn_radio.Jammer

let check = Alcotest.(check bool)

(* The root's aggregate where the run claims it complete. *)
let root r = if r.Cogcomp.complete then Some r.Cogcomp.root_value else None
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
              (Some expect) (root res)
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
    (root max_res);
  let min_res = run Aggregate.min_int ints in
  Alcotest.(check (option int)) "min" (Some (Array.fold_left min ints.(0) ints))
    (root min_res);
  let count_res = run Aggregate.count (Array.make 30 1) in
  Alcotest.(check (option int)) "count" (Some 30) (root count_res)

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
  let collected = res.Cogcomp.root_value in
  Alcotest.(check (list int)) "exactly 0..24" (List.init 25 (fun i -> i)) collected

let test_nonzero_source () =
  let spec = { Topology.n = 20; c = 8; k = 4 } in
  let res, expect = run_sum ~seed:9 ~source:13 Topology.Clustered spec in
  check "complete" true res.Cogcomp.complete;
  Alcotest.(check (option int)) "sum to non-zero source" (Some expect)
    (root res)

let test_single_node () =
  let spec = { Topology.n = 1; c = 3; k = 1 } in
  let res, expect = run_sum Topology.Identical spec in
  check "complete" true res.Cogcomp.complete;
  Alcotest.(check (option int)) "n=1 root value" (Some expect) (root res);
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
  (* With a starved phase-1 budget, the run must report incomplete, and its
     root value is the partial fold over the nodes it covered rather than a
     wrong total. *)
  let spec = { Topology.n = 64; c = 16; k = 1 } in
  let assignment = Topology.shared_core (Rng.create 2) spec in
  let values = Array.make 64 1 in
  let res =
    Cogcomp.run ~budget_factor:0.05 ~monoid:Aggregate.sum ~values ~source:0
      ~assignment ~k:1 ~rng:(Rng.create 3) ()
  in
  check "incomplete" false res.Cogcomp.complete;
  Alcotest.(check (option int)) "no root value" None (root res);
  check_int "root = covered nodes" res.Cogcomp.coverage res.Cogcomp.root_value;
  check_int "coverage + lost" 64 (res.Cogcomp.coverage + List.length res.Cogcomp.lost)

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
        (root res))
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
        (root res);
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
  Alcotest.(check (option int)) "same value" (root a) (root b)

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
      && (root res) = Some (Array.fold_left ( + ) 0 values))

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
      && (root res) = Some (List.init n (fun i -> i)))

(* --- known answers -------------------------------------------------------- *)

(* MD5 of [Trace.to_jsonl] for fixed runs, generated before plain and
   fault-tolerant COGCOMP became one drain: every event of these runs —
   decide, win, delivery, retirement, re-election — must keep its bytes.
   Fault-free runs cover the three slot loops the phases run on; the
   ablation and the payload measure cover [~mediated:false] and [?measure]
   (the payload sizes are appended to the trace); the recovering runs
   cover naps, crash/restart and a reactive jammer. *)
let known_specs =
  [
    (Topology.Shared_plus_random, { Topology.n = 20; c = 8; k = 2 }, 1);
    (Topology.Shared_plus_random, { Topology.n = 20; c = 8; k = 2 }, 2);
    (Topology.Pairwise_private, { Topology.n = 16; c = 10; k = 3 }, 3);
    (Topology.Clustered, { Topology.n = 30; c = 6; k = 1 }, 4);
  ]

let known_runs () =
  let traced kind spec seed f =
    let rng = Rng.create seed in
    let assignment = Topology.generate kind rng spec in
    let trace = Trace.create () in
    let tail = f ~trace ~assignment ~rng in
    Digest.to_hex (Digest.string (Trace.to_jsonl trace ^ tail))
  in
  let sum_values spec = Array.init spec.Topology.n (fun i -> (i * 7) + 3) in
  let name label kind spec seed =
    Printf.sprintf "%s %s n=%d seed=%d" label (Topology.kind_name kind)
      spec.Topology.n seed
  in
  let fault_free =
    List.concat_map
      (fun (label, backend) ->
        List.map
          (fun (kind, spec, seed) ->
            ( name label kind spec seed,
              traced kind spec seed (fun ~trace ~assignment ~rng ->
                  ignore
                    (Cogcomp.run ~backend ~trace ~monoid:Aggregate.sum
                       ~values:(sum_values spec) ~source:0 ~assignment
                       ~k:spec.Topology.k ~rng ());
                  "") ))
          known_specs)
      [
        ("engine", Runner.Engine);
        ("decay", decay_emulation);
        ("csma", Runner.Emulation { strategy = Emulation.Csma; session_cap = None });
      ]
  in
  let unmediated =
    List.map
      (fun (kind, spec, seed) ->
        ( name "unmediated" kind spec seed,
          traced kind spec seed (fun ~trace ~assignment ~rng ->
              ignore
                (Cogcomp.run ~mediated:false ~trace ~monoid:Aggregate.sum
                   ~values:(sum_values spec) ~source:0 ~assignment
                   ~k:spec.Topology.k ~rng ());
              "") ))
      known_specs
  in
  let measured =
    List.map
      (fun (kind, spec, seed) ->
        ( name "measured" kind spec seed,
          traced kind spec seed (fun ~trace ~assignment ~rng ->
              let r =
                Cogcomp.run ~measure:List.length ~trace ~monoid:Aggregate.multiset
                  ~values:(Array.init spec.Topology.n (fun i -> [ i ]))
                  ~source:0 ~assignment ~k:spec.Topology.k ~rng ()
              in
              Printf.sprintf "%d %d" r.Cogcomp.max_payload r.Cogcomp.total_payload) ))
      known_specs
  in
  let recovering label ?jammer ?faults kind spec seed =
    ( name label kind spec seed,
      traced kind spec seed (fun ~trace ~assignment ~rng ->
          ignore
            (Cogcomp.run ~recover:true ?jammer ?faults ~trace ~monoid:Aggregate.sum
               ~values:(sum_values spec) ~source:0 ~assignment
               ~k:spec.Topology.k ~rng ());
          "") )
  in
  let spec24 = { Topology.n = 24; c = 8; k = 2 } in
  let naps seed = Faults.spare (Faults.random_naps ~seed ~rate:0.02) ~node:0 in
  fault_free @ unmediated @ measured
  @ [
      recovering "naps" ~faults:(naps 5L) Topology.Shared_plus_random spec24 11;
      recovering "naps" ~faults:(naps 6L) Topology.Clustered spec24 12;
      recovering "crash-restart"
        ~faults:(Faults.crash_restart ~node:3 ~from_slot:4 ~down_for:6)
        Topology.Shared_plus_random spec24 13;
      recovering "crash"
        ~faults:(Faults.crash ~node:5 ~from_slot:30)
        Topology.Pairwise_private spec24 14;
      recovering "reactive" ~jammer:(Jammer.reactive ())
        Topology.Shared_plus_random spec24 15;
    ]

let expected_digests =
  [
    ("engine shared+random n=20 seed=1", "3805eb4edca9e256754f989e3ba8dd51");
    ("engine shared+random n=20 seed=2", "5f55b4b962db55df782378f9b43eaa8e");
    ("engine pairwise-private n=16 seed=3", "85ddf2c372258fd6b362f8717e07eecd");
    ("engine clustered n=30 seed=4", "33be230393f3865c460c8823d1cd90bb");
    ("decay shared+random n=20 seed=1", "14355e05c13d94e92ef950b640901876");
    ("decay shared+random n=20 seed=2", "0337770da7ce8bf2f0d000978bcd447c");
    ("decay pairwise-private n=16 seed=3", "ec19f17317c5cad9bfe91eb338cfc5ac");
    ("decay clustered n=30 seed=4", "e93d430edb2077856b179d03e2b6bcbb");
    ("csma shared+random n=20 seed=1", "d91540db33656d589a1707439022b43f");
    ("csma shared+random n=20 seed=2", "ac6b92cdaa1f23837fd3181f3bb5ceb1");
    ("csma pairwise-private n=16 seed=3", "d5ff40bfa9c80cdb81a60bde16518a5a");
    ("csma clustered n=30 seed=4", "2c7c5c57dd7b0868c717439ca734a194");
    ("unmediated shared+random n=20 seed=1", "25dddaa8fca3f8c1d3a1b48c2f906538");
    ("unmediated shared+random n=20 seed=2", "787451ebe4627b8410d0acffa1feb1ec");
    ("unmediated pairwise-private n=16 seed=3", "e232f8285a0a85256b42b0846f3a862d");
    ("unmediated clustered n=30 seed=4", "f969223c833fc348d4e7428897a26ab6");
    ("measured shared+random n=20 seed=1", "9fdba677f7e5b311da869fd62092c2e2");
    ("measured shared+random n=20 seed=2", "a50fda996be2e6cfd9237e534f1b782d");
    ("measured pairwise-private n=16 seed=3", "15a43afa9e46b7373f94c19a427e716d");
    ("measured clustered n=30 seed=4", "24a1e54e15b8b5d20fb55c375ba50e85");
    ("naps shared+random n=24 seed=11", "7d4e179e028c425278a09e3aba35012b");
    ("naps clustered n=24 seed=12", "7f9e244977f3476d18f44482568567f5");
    ("crash-restart shared+random n=24 seed=13", "72c38d1d3d3869ceb375248e7185621f");
    ("crash pairwise-private n=24 seed=14", "41f62af209d0c756959f8d50e65464da");
    ("reactive shared+random n=24 seed=15", "16fa8491f926f3490bbdd347e0b1525b");
  ]

let test_known_answers () =
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string) name (List.assoc name expected_digests) digest)
    (known_runs ())

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
      ( "known answers",
        [ Alcotest.test_case "pinned trace digests" `Quick test_known_answers ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_sum_correct; prop_multiset_complete ] );
    ]
