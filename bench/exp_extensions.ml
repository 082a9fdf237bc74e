(* Experiments E16-E22 and E25: extensions beyond the paper's headline
   results.

   E16 contextualizes COGCAST against the deterministic rendezvous family
   the paper cites as prior art (§1, §3): pairwise meeting times and
   schedule-driven broadcast vs the epidemic.

   E17 exercises the §1 robustness claim: COGCAST under transient node
   faults (random naps and duty cycling). *)

open Bench_util
module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Assignment = Crn_channel.Assignment
module Dynamic = Crn_channel.Dynamic
module Faults = Crn_radio.Faults
module Runner = Crn_radio.Runner
module Emulation = Crn_radio.Emulation
module Cogcast = Crn_core.Cogcast
module Complexity = Crn_core.Complexity
module Deterministic = Crn_rendezvous.Deterministic
module Random_hop = Crn_rendezvous.Random_hop
module Table = Crn_stats.Table

(* E16: pairwise rendezvous — deterministic schedules vs random hopping on
   shared-core instances, and broadcast built from each. *)
let e16 () =
  header "E16"
    "Deterministic rendezvous (prior art, §1/§3) vs random hopping and COGCAST";
  let t =
    Table.create
      [ "c"; "k"; "random-hop mean"; "jump-stay worst"; "c^2/k"; "9P^2 cap" ]
  in
  let cfgs = if !quick then [ (6, 2); (10, 3) ] else [ (4, 1); (6, 2); (8, 4); (10, 3); (12, 2) ] in
  List.iter
    (fun (c, k) ->
      let spec = { Topology.n = 2; c; k } in
      let trials = trials ~full:40 in
      (* Random hopping: mean over fresh instances. *)
      let rh =
        mean_of ~trials ~base_seed:(16_000 + c) (fun rng ->
            let a = Topology.shared_core rng spec in
            match
              Random_hop.pair ~rng ~assignment:a ~u:0 ~v:1 ~max_slots:1_000_000
            with
            | Some s -> s
            | None -> 1_000_000)
      in
      (* Jump-stay: worst case over instances (deterministic given the
         instance). *)
      let runs =
        run_trials ~trials ~base_seed:(17_000 + c) (fun rng ->
            let a = Topology.shared_core ~global_labels:true rng spec in
            let p = Deterministic.smallest_prime_geq (Assignment.num_channels a) in
            let cap = 9 * p * p in
            let s =
              match
                Deterministic.pair_rendezvous a
                  ~u:(Deterministic.jump_stay a ~node:0)
                  ~v:(Deterministic.jump_stay a ~node:1)
                  ~max_slots:cap
              with
              | Some s -> s
              | None -> cap
            in
            (s, cap))
      in
      let js_worst = Array.fold_left (fun acc (s, _) -> max acc s) 0 runs in
      let cap = Array.fold_left (fun acc (_, c) -> max acc c) 0 runs in
      Table.add_row t
        [
          string_of_int c;
          string_of_int k;
          fmt_f rh;
          string_of_int js_worst;
          fmt_f (float_of_int (c * c) /. float_of_int k);
          string_of_int cap;
        ])
    cfgs;
  print_table t;
  note "random hopping meets in ~c^2/k expected slots (the §1 bound); jump-stay is";
  note "deterministic and worst-case bounded, but needs global labels — under the";
  note "paper's local-label model no deterministic schedule can coordinate (§6).";
  (* Broadcast comparison at one config. *)
  let spec = { Topology.n = 32; c = 8; k = 3 } in
  let trials = trials ~full:5 in
  let epidemic =
    median_of ~trials ~base_seed:18_000 (fun rng ->
        let a = Topology.shared_core ~global_labels:true rng spec in
        let r = Cogcast.run_static ~source:0 ~assignment:a ~k:3 ~rng () in
        Option.value ~default:r.Cogcast.slots_run r.Cogcast.completed_at)
  in
  let js =
    median_of ~trials ~base_seed:19_000 (fun rng ->
        let a = Topology.shared_core ~global_labels:true rng spec in
        let m =
          Deterministic.machine ~make_schedule:Deterministic.jump_stay ~source:0
            ~assignment:a
        in
        let runner = Runner.make ~availability:(Dynamic.static a) ~rng () in
        match fst (Runner.drive runner m ~max_slots:1_000_000) with
        | { Deterministic.completed_at = Some s; _ } -> s
        | { Deterministic.completed_at = None; _ } -> 1_000_000)
  in
  note "broadcast n=32 c=8 k=3: COGCAST median %.0f vs jump-stay-epidemic median %.0f"
    epidemic js

(* E17: robustness to transient faults (§1 discussion). *)
let e17 () =
  header "E17" "COGCAST under transient faults (n = 64, c = 16, k = 4; §1 robustness)";
  let spec = { Topology.n = 64; c = 16; k = 4 } in
  let { Topology.n; c; k } = spec in
  let budget = 8 * Complexity.cogcast_slots ~n ~c ~k () in
  let t = Table.create [ "fault model"; "down fraction"; "median slots"; "vs fault-free" ] in
  let run_with faults rng =
    let run_rng = Rng.split rng in
    let a = Topology.shared_plus_random rng spec in
    let r =
      Cogcast.run ~faults ~source:0 ~availability:(Dynamic.static a) ~rng:run_rng
        ~max_slots:budget ()
    in
    Option.value ~default:r.Cogcast.slots_run r.Cogcast.completed_at
  in
  let trials = trials ~full:9 in
  let base = median_of ~trials ~base_seed:20_000 (run_with Faults.none) in
  Table.add_row t [ "none"; "0.00"; fmt_f base; "1.00" ];
  List.iter
    (fun rate ->
      let faults = Faults.random_naps ~seed:(Int64.of_float (rate *. 100.0)) ~rate in
      let m = median_of ~trials ~base_seed:(21_000 + int_of_float (rate *. 100.)) (run_with faults) in
      Table.add_row t
        [ "random naps"; fmt_f2 rate; fmt_f m; fmt_f2 (m /. base) ])
    [ 0.1; 0.3; 0.5; 0.7 ];
  List.iter
    (fun (period, nap) ->
      let faults = Faults.periodic_nap ~period ~nap ~offset_stride:7 in
      let m = median_of ~trials ~base_seed:(22_000 + nap) (run_with faults) in
      Table.add_row t
        [
          Printf.sprintf "duty cycle %d/%d" nap period;
          fmt_f2 (float_of_int nap /. float_of_int period);
          fmt_f m;
          fmt_f2 (m /. base);
        ])
    [ (8, 2); (8, 4) ];
  print_table t;
  note "claim (§1): obliviousness makes COGCAST robust — a node that misses a";
  note "fraction q of slots slows completion by roughly 1/(1-q)^2 (both endpoints";
  note "must be awake), never breaking correctness"

module Cogcomp = Crn_core.Cogcomp
module Aggregate = Crn_core.Aggregate

(* E18: mediator ablation — phase-4 steps with and without the per-channel
   coordination (the design choice §5 motivates). *)
let e18 () =
  header "E18" "Ablation: COGCOMP phase 4 with vs without mediators (c = 8, k = 2)";
  let c = 8 and k = 2 in
  let ns = if !quick then [ 32; 128 ] else [ 32; 64; 128; 256; 512 ] in
  let t =
    Table.create
      [ "n"; "mediated steps"; "unmediated steps"; "penalty"; "both correct" ]
  in
  List.iter
    (fun n ->
      let spec = { Topology.n; c; k } in
      let trials = trials ~full:5 in
      (* Each trial reports (steps, correct); correctness is then folded
         over all runs rather than accumulated through a shared ref. *)
      let steps mediated base_seed =
        let runs =
          run_trials ~trials ~base_seed (fun rng ->
              let run_rng = Rng.split rng in
              let assignment = Topology.shared_core rng spec in
              let values = Array.init n (fun i -> i) in
              let res =
                Cogcomp.run ~mediated ~monoid:Aggregate.sum ~values ~source:0
                  ~assignment ~k ~rng:run_rng ()
              in
              ( float_of_int res.Cogcomp.phase4_steps,
                res.Cogcomp.root_value = Some (n * (n - 1) / 2) ))
        in
        let med = Crn_stats.Summary.median (Array.map fst runs) in
        let ok = Array.for_all snd runs in
        (med, ok)
      in
      let med, ok1 = steps true (23_000 + n) in
      let unmed, ok2 = steps false (24_000 + n) in
      Table.add_row t
        [
          string_of_int n;
          fmt_f med;
          fmt_f unmed;
          fmt_f2 (unmed /. Float.max 1.0 med);
          string_of_bool (ok1 && ok2);
        ])
    ns;
  print_table t;
  note "claim (§5): without the mediator serializing each channel, ready senders";
  note "from different clusters contend; correctness is preserved (the receiver";
  note "filters by cluster) but the drain pays a contention penalty that grows";
  note "with the number of co-channel clusters"

(* E19: message size — §5 discussion: associative aggregation needs only a
   constant-size digest per message, vs forwarding whole value lists. *)
let e19 () =
  header "E19" "Message size: digest vs raw-forwarding payloads (c = 10, k = 3; §5)";
  let c = 10 and k = 3 in
  let ns = if !quick then [ 32; 128 ] else [ 32; 64; 128; 256; 512 ] in
  let t =
    Table.create
      [ "n"; "digest max"; "digest total"; "multiset max"; "multiset total" ]
  in
  List.iter
    (fun n ->
      let spec = { Topology.n; c; k } in
      let assignment = Topology.shared_plus_random (Rng.create (25_000 + n)) spec in
      let digest =
        Cogcomp.run ~measure:(fun _ -> 1) ~monoid:Aggregate.sum
          ~values:(Array.init n (fun i -> i))
          ~source:0 ~assignment ~k ~rng:(Rng.create (26_000 + n)) ()
      in
      let raw =
        Cogcomp.run ~measure:List.length ~monoid:Aggregate.multiset
          ~values:(Array.init n (fun i -> [ i ]))
          ~source:0 ~assignment ~k ~rng:(Rng.create (27_000 + n)) ()
      in
      Table.add_row t
        [
          string_of_int n;
          string_of_int digest.Cogcomp.max_payload;
          string_of_int digest.Cogcomp.total_payload;
          string_of_int raw.Cogcomp.max_payload;
          string_of_int raw.Cogcomp.total_payload;
        ])
    ns;
  print_table t;
  note "claim (§5): with an associative function each message carries O(1) digests";
  note "(polylog bits), while raw forwarding makes the root's children carry whole";
  note "subtrees — Theta(n) values in the worst case, Theta(n log n)-ish in total"

module Adversary = Crn_channel.Adversary

(* E20: Theorem 17 — the dynamic adversary stalls predictable algorithms
   forever; secret randomness escapes. *)
let e20 () =
  header "E20" "Theorem 17: dynamic adversary vs predictable algorithms (n = 16, c = 8, k = 3)";
  let n = 16 and c = 8 and k = 3 in
  let spec = { Topology.n; c; k } in
  let horizon = if !quick then 2_000 else 20_000 in
  let t = Table.create [ "victim"; "slots run"; "informed"; "completed" ] in
  let report name (r : Cogcast.result) =
    Table.add_row t
      [
        name;
        string_of_int r.Cogcast.slots_run;
        Printf.sprintf "%d/%d" r.Cogcast.informed_count n;
        (match r.Cogcast.completed_at with Some s -> string_of_int s | None -> "never");
      ]
  in
  (* Leaked-seed COGCAST: the adversary replays the victim's own stream. *)
  let seed = 2025 in
  let d_leak =
    Adversary.isolate_source ~spec ~source:0
      ~predict_source_label:(Cogcast.label_oracle ~seed ~n ~c ~node:0)
  in
  report "COGCAST, leaked seed"
    (Cogcast.run ~source:0 ~availability:d_leak ~rng:(Rng.create seed)
       ~max_slots:horizon ());
  (* A deterministic label-0 schedule. *)
  let d_det =
    Adversary.isolate_source ~spec ~source:0 ~predict_source_label:(fun ~slot:_ -> 0)
  in
  let informed = Array.make n false in
  informed.(0) <- true;
  let count = ref 1 in
  let nodes =
    Array.init n (fun v ->
        Crn_radio.Engine.node ~id:v
          ~decide:(fun ~slot:_ ->
            if v = 0 then Crn_radio.Action.broadcast ~label:0 ()
            else Crn_radio.Action.listen ~label:0)
          ~feedback:(fun ~slot:_ -> function
            | Crn_radio.Action.Heard _ ->
                if not informed.(v) then begin
                  informed.(v) <- true;
                  incr count
                end
            | _ -> ()))
  in
  ignore
    (Crn_radio.Engine.run ~availability:d_det ~rng:(Rng.create 5) ~nodes
       ~max_slots:horizon ());
  Table.add_row t
    [
      "fixed-label schedule";
      string_of_int horizon;
      Printf.sprintf "%d/%d" !count n;
      "never";
    ];
  (* Secret-seed COGCAST against the same adversary (its oracle replays the
     wrong stream). *)
  let d_secret =
    Adversary.isolate_source ~spec ~source:0
      ~predict_source_label:(Cogcast.label_oracle ~seed ~n ~c ~node:0)
  in
  report "COGCAST, secret seed"
    (Cogcast.run ~source:0 ~availability:d_secret ~rng:(Rng.create 31337)
       ~max_slots:horizon ());
  print_table t;
  note "claim (Thm 17): with k < c the availability can conspire against any";
  note "algorithm whose choices it can predict — determinism or leaked seeds mean";
  note "the source stays isolated forever; fresh secret randomness completes fast"

module Metrics = Crn_radio.Metrics
module Protocol = Crn_proto.Protocol
module Registry = Crn_proto.Registry

(* E21 (library extension, not a paper claim): the energy side of the
   time/energy trade — the epidemic finishes much sooner but transmits far
   more per slot than the source-only baseline. *)
let e21 () =
  header "E21" "Telemetry: transmissions & awake-slots, COGCAST vs rendezvous baseline";
  let k = 2 in
  let ns = if !quick then [ 64 ] else [ 64; 256; 1024 ] in
  let c = 16 in
  let t =
    Table.create
      [ "n"; "protocol"; "slots"; "total tx"; "tx/node"; "awake/node" ]
  in
  List.iter
    (fun n ->
      let spec = { Topology.n; c; k } in
      let assignment = Topology.shared_core (Rng.create (28_000 + n)) spec in
      let m = Metrics.create n in
      let r =
        Cogcast.run_static ~metrics:m ~source:0 ~assignment ~k
          ~rng:(Rng.create (28_100 + n)) ()
      in
      let slots = Option.value ~default:r.Cogcast.slots_run r.Cogcast.completed_at in
      Table.add_row t
        [
          string_of_int n;
          "COGCAST";
          string_of_int slots;
          string_of_int (Metrics.total_transmissions m);
          fmt_f2 (float_of_int (Metrics.total_transmissions m) /. float_of_int n);
          fmt_f2 (float_of_int (Metrics.total_awake m) /. float_of_int n);
        ];
      let m2 = Metrics.create n in
      (* Baseline via the registry: per-node metrics flow through the
         protocol layer's engine driver just as for a direct call. *)
      let r2 =
        Protocol.run
          (Registry.find_exn "broadcast_baseline")
          (Protocol.env ~k ~metrics:m2
             ~availability:(Crn_channel.Dynamic.static assignment)
             ~rng:(Rng.create (28_200 + n)) ())
      in
      let slots2 =
        Option.value ~default:r2.Protocol.slots_run r2.Protocol.completed_at
      in
      Table.add_row t
        [
          string_of_int n;
          "rendezvous";
          string_of_int slots2;
          string_of_int (Metrics.total_transmissions m2);
          fmt_f2 (float_of_int (Metrics.total_transmissions m2) /. float_of_int n);
          fmt_f2 (float_of_int (Metrics.total_awake m2) /. float_of_int n);
        ])
    ns;
  print_table t;
  note "not a paper claim — telemetry exposed by the library: the epidemic's speed";
  note "is bought with many concurrent transmitters (every informed node talks each";
  note "slot), while the baseline transmits from the source only but stays on the";
  note "air ~c/speedup times longer. awake slots (listening cost) favor COGCAST."

(* E22: footnote 4 end-to-end — COGCAST executed over decay-backoff
   contention sessions on the raw collision radio; overhead in raw rounds
   per abstract slot should be O(log² n) with a small constant. *)
let emulation strategy = Runner.Emulation { strategy; session_cap = None }

(* A raw-radio point's abstract slots, raw rounds and failed sessions,
   summed over its trials. *)
let radio_totals r =
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 r.Run.summaries in
  ( sum (fun s -> s.Protocol.slots_run),
    sum (fun s -> s.Protocol.raw_rounds),
    sum (fun s -> s.Protocol.failed_sessions) )

let e22 () =
  header "E22" "COGCAST on the raw radio via decay sessions (footnote 4, end-to-end)";
  let c = 8 and k = 2 in
  let ns = if !quick then [ 16; 64 ] else [ 16; 32; 64; 128; 256 ] in
  let t =
    Table.create
      [ "n"; "abstract slots"; "raw rounds"; "rounds/slot"; "4(lg n + 1)^2"; "failed sessions" ]
  in
  let trials = trials ~full:5 in
  let spec n =
    Run.spec ~backend:(emulation Emulation.Decay) ~trials ~seed:(29_000 + n)
      (Registry.find_exn "cogcast") { Topology.n; c; k }
  in
  List.iter
    (fun n ->
      let slots, rounds, failed = radio_totals (point (spec n)) in
      let ft = float_of_int trials in
      Table.add_row t
        [
          string_of_int n;
          fmt_f (float_of_int slots /. ft);
          fmt_f (float_of_int rounds /. ft);
          fmt_f2 (float_of_int rounds /. float_of_int (max 1 slots));
          string_of_int (Crn_radio.Backoff.expected_rounds_bound n);
          string_of_int failed;
        ])
    ns;
  print_table t;
  reproduce ~vary:[ ("-n", "N"); ("--seed", "29000+N") ] (spec (List.hd ns));
  note "claim (footnote 4): the one-winner model costs O(log^2 n) raw rounds per";
  note "abstract slot; measured per-slot overhead grows logarithmically and stays";
  note "far below the worst-case budget, with no failed contention sessions";
  (* And the full aggregation stack, all four phases on the raw radio. *)
  let cogcomp =
    Run.spec ~backend:(emulation Emulation.Decay) ~trials:1 ~seed:29_500
      (Registry.find_exn "cogcomp") { Topology.n = 32; c; k }
  in
  let s = (point cogcomp).Run.summaries.(0) in
  note "COGCOMP end-to-end on the raw radio (n=32): complete=%b, sum %s, %d abstract"
    s.Protocol.completed
    (match Run.detail_number "root_value" s with
    | Some v -> Printf.sprintf "%.0f" v
    | None -> "-")
    s.Protocol.slots_run;
  note "slots realized in %d raw rounds (%.2f rounds/slot)" s.Protocol.raw_rounds
    (float_of_int s.Protocol.raw_rounds /. float_of_int (max 1 s.Protocol.slots_run));
  reproduce ~vary:[] cogcomp

(* E25: the footnote-4 loop closed for the whole registry — every
   protocol executed on the raw collision radio under
   both contention realizations. The decay overhead factor (raw rounds per
   abstract slot) must stay within the 4(⌈lg n⌉+1)² budget; the CSMA/CA
   curve is reported alongside (no budget is claimed for it: its window
   adapts from collisions rather than from a population estimate). *)
let e25 () =
  header "E25"
    "Registry on the raw radio: rounds/slot, decay vs CSMA/CA (footnote 4)";
  let c = 8 and k = 2 in
  let ns = if !quick then [ 16; 64 ] else [ 16; 64; 256 ] in
  (* Every registry entry but robust COGCOMP: fault-free it is plain
     COGCOMP slot for slot on either emulation (test_cogcomp_robust pins
     this), so its row would repeat cogcomp's. *)
  let protos =
    [
      "cogcast";
      "cogcomp";
      "broadcast_baseline";
      "aggregation_baseline";
      "aggregation_baseline_honest";
      "random_hop";
      "seq_scan";
      "deterministic";
      "gossip";
      "push_sum";
    ]
  in
  let t =
    Table.create
      [
        "protocol"; "n"; "slots"; "decay r/slot"; "csma r/slot";
        "4(lg n+1)^2"; "decay failed"; "csma failed";
      ]
  in
  let trials = trials ~full:5 in
  (* Same seed for both strategies: trial i sees the same assignment and
     protocol stream under decay and CSMA, so the two columns differ only
     in the contention realization. *)
  let spec pi name strategy n =
    Run.spec ~backend:(emulation strategy) ~trials ~seed:(31_000 + (1_000 * pi) + n)
      (Registry.find_exn name) { Topology.n; c; k }
  in
  let violations = ref [] in
  List.iteri
    (fun pi name ->
      List.iter
        (fun n ->
          let measure strategy =
            let slots, rounds, failed = radio_totals (point (spec pi name strategy n)) in
            (slots, float_of_int rounds /. float_of_int (max 1 slots), failed)
          in
          let slots, decay_factor, decay_failed = measure Emulation.Decay in
          let _, csma_factor, csma_failed = measure Emulation.Csma in
          let budget = Crn_radio.Backoff.expected_rounds_bound n in
          if decay_factor > float_of_int budget then
            violations :=
              Printf.sprintf "%s n=%d: decay %.2f rounds/slot > budget %d" name
                n decay_factor budget
              :: !violations;
          Table.add_row t
            [
              name;
              string_of_int n;
              fmt_f (float_of_int slots /. float_of_int trials);
              fmt_f2 decay_factor;
              fmt_f2 csma_factor;
              string_of_int budget;
              string_of_int decay_failed;
              string_of_int csma_failed;
            ])
        ns)
    protos;
  print_table t;
  reproduce
    ~vary:[ ("-p", "NAME"); ("-n", "N"); ("--seed", "31000+1000P+N") ]
    (spec 0 (List.hd protos) Emulation.Decay (List.hd ns));
  note "P: the protocol's place in the table, from 0; --backend emulation-csma for";
  note "the csma columns";
  (match !violations with
  | [] ->
      note "claim (footnote 4): every protocol's decay overhead factor stays within";
      note "the 4(lg n + 1)^2 budget — it holds for the entire registry at every n"
  | vs -> List.iter (fun v -> note "VIOLATION: %s" v) (List.rev vs));
  note "CSMA/CA is reported, not budgeted: its contention window adapts from";
  note "observed collisions, so heavy contention can push sessions past tight caps"

(* E26: the registry on the struct-of-arrays backend — the
   universal-backend seam, measured. Every of_machine entry, COGCAST
   included, runs under [--backend soa]
   at two sizes and at shards 1 and 8; the shards-8 summary is compared
   byte-for-byte with the shards-1 summary of the same cell, so the table
   doubles as a shard-invariance audit. The engine backend is the soa
   backend at one shard, so there is no separate engine row; the engine's
   oracle is {!Crn_radio.Reference}, held trace-for-trace in
   test/test_soa.ml. cogcomp and cogcomp_robust run on the soa backend
   too, but are excluded here: every cell sets one [max_slots], which a
   multi-phase run rejects — see EXPERIMENTS.md. *)
let e26 () =
  header "E26" "Registry on the SoA backend: scale and shard parity";
  let module Protocol = Crn_proto.Protocol in
  let module Registry = Crn_proto.Registry in
  let module Runner = Crn_radio.Runner in
  let module Json = Crn_stats.Json in
  let c = 8 and k = 2 in
  let ns = if !quick then [ 1_000; 10_000 ] else [ 10_000; 100_000 ] in
  let scale_n = List.nth ns 1 in
  let max_slots = 2_000 in
  let t =
    Table.create [ "protocol"; "n"; "backend"; "slots"; "done"; "wall s"; "parity" ]
  in
  let mismatches = ref [] and skipped = ref [] in
  let completed_at_scale = ref [] in
  List.iteri
    (fun pi name ->
      let proto = Registry.find_exn name in
      (* Every (n, shards) cell sees the same instance and the same
         protocol stream: the assignment rng and the env rng are re-created
         from the same seeds. *)
      let run ~n ~shards =
        let rng = Rng.create (33_000 + (1_000 * pi) + n) in
        let assignment = Topology.shared_plus_random rng { Topology.n; c; k } in
        let env =
          Protocol.env
            ~backend:(Runner.Soa { shards; dense_channel_limit = None })
            ~k ~max_slots
            ~availability:(Dynamic.static assignment)
            ~rng:(Rng.create (33_500 + (1_000 * pi) + n))
            ()
        in
        let t0 = Unix.gettimeofday () in
        let s = Protocol.run proto env in
        (s, Unix.gettimeofday () -. t0)
      in
      (* Past n = 10^4 an entry that ran to the cap at the previous n is
         not scaled up: it would only run to the cap again, for most of the
         refresh's wall time. *)
      let completed = ref true in
      List.iter
        (fun n ->
          let base = ref "" in
          if n > 10_000 && not !completed then skipped := name :: !skipped
          else
            List.iter
              (fun shards ->
                let s, wall = run ~n ~shards in
                completed := s.Protocol.completed;
                let summary = Json.to_string (Protocol.summary_json s) in
                let parity =
                  if shards = 1 then begin
                    base := summary;
                    "-"
                  end
                  else if summary = !base then "ok"
                  else begin
                    mismatches :=
                      Printf.sprintf "%s n=%d shards=%d" name n shards
                      :: !mismatches;
                    "MISMATCH"
                  end
                in
                if s.Protocol.completed && n = scale_n then
                  completed_at_scale :=
                    Printf.sprintf "%s (shards=%d)" name shards
                    :: !completed_at_scale;
                Table.add_row t
                  [
                    name;
                    string_of_int n;
                    Printf.sprintf "soa s=%d" shards;
                    string_of_int s.Protocol.slots_run;
                    (if s.Protocol.completed then "yes" else "no");
                    fmt_f2 wall;
                    parity;
                  ])
              [ 1; 8 ])
        ns)
    (Registry.machine_names ());
  print_table t;
  (match !mismatches with
  | [] ->
      note "parity: every shards=8 summary is byte-identical to its shards=1";
      note "summary — sharding a trial is observationally invisible"
  | ms -> List.iter (fun m -> note "PARITY MISMATCH: %s" m) (List.rev ms));
  if !skipped <> [] then
    note "not run at n=%d (ran to max_slots=%d at the smaller n): %s" scale_n max_slots
      (String.concat ", " (List.rev !skipped));
  (match !completed_at_scale with
  | [] ->
      note "no protocol completed at n=%d before max_slots=%d" scale_n max_slots
  | cs ->
      note "completed at n=%d on soa: %s" scale_n
        (String.concat ", " (List.rev cs)));
  note "the engine backend is this loop at shards=1; its oracle is the";
  note "reference spec, held trace-for-trace in test/test_soa.ml. Excluded:";
  note "cogcomp and cogcomp_robust, whose multi-phase budget is not one max_slots"
