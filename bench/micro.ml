(* Micro-benchmarks.

   [bench_engine] (the MICRO experiment id) measures the engine hot path
   head-to-head against its executable specification: minor-heap words and
   wall-clock per slot for {!Crn_radio.Engine.run} / {!Crn_radio.Emulation.run}
   versus {!Crn_radio.Reference} (the pre-rewrite list-and-hashtable slot
   loop in canonical order). Results land in the --json report, so the
   perf trajectory of the engine itself accumulates across PRs.

   [run] holds the original Bechamel kernel-throughput suite: wall-clock of
   the simulator kernels every experiment rests on — one Test.make per
   experiment family. *)

open Bechamel
open Toolkit
module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Bitset = Crn_channel.Bitset
module Cogcast = Crn_core.Cogcast
module Cogcomp = Crn_core.Cogcomp
module Aggregate = Crn_core.Aggregate
module Backoff = Crn_radio.Backoff
module Hitting_game = Crn_games.Hitting_game
module Players = Crn_games.Players

let spec = { Topology.n = 64; c = 16; k = 4 }

(* ------------------------------------------------------------------ *)
(* MICRO: engine hot path, rewritten vs reference.                     *)
(* ------------------------------------------------------------------ *)

module Engine = Crn_radio.Engine
module Emulation = Crn_radio.Emulation
module Reference = Crn_radio.Reference
module Soa = Crn_radio.Soa
module Action = Crn_radio.Action
module Dynamic = Crn_channel.Dynamic
module Runner = Crn_radio.Runner
module Pool = Crn_exec.Pool

(* A contention-heavy synthetic protocol with a precomputed cyclic decision
   schedule: node i replays a random-looking but fully pre-allocated pattern
   of broadcast/listen choices and labels (period [schedule_period]), so the
   protocol itself allocates nothing and draws no randomness during the
   measured run. The minor-heap words measured are therefore the engine
   layer's own (including its winner draws on contended channels), not the
   workload's. The message payload is the node id. *)
let schedule_period = 64

let make_bench_nodes ~n ~c ~seed =
  let rng = Rng.create seed in
  let schedule =
    Array.init n (fun i ->
        Array.init schedule_period (fun _ ->
            let label = Rng.int rng c in
            if Rng.bool rng then Action.broadcast ~label i
            else Action.listen ~label))
  in
  Array.init n (fun i ->
      Engine.node ~id:i
        ~decide:(fun ~slot -> schedule.(i).(slot mod schedule_period))
        ~feedback:(fun ~slot:_ _ -> ()))

(* The same cyclic schedule as a {!Soa.protocol}, so the struct-of-arrays
   engine rows measure an identical contention workload to the node-record
   rows: same schedules, same seed, same winner-draw stream. *)
let make_soa_schedule_protocol ~n ~c ~seed =
  let rng = Rng.create seed in
  let schedule =
    Array.init n (fun i ->
        Array.init schedule_period (fun _ ->
            let label = Rng.int rng c in
            if Rng.bool rng then Action.broadcast ~label i
            else Action.listen ~label))
  in
  let decide t ~slot ~lo ~hi =
    for i = lo to hi - 1 do
      if not (Soa.is_down t i) then begin
        let d = schedule.(i).(slot mod schedule_period) in
        match d.Action.intent with
        | Action.Broadcast msg -> Soa.set_broadcast t i ~label:d.Action.label ~msg
        | Action.Listen -> Soa.set_listen t i ~label:d.Action.label
      end
    done
  in
  let feedback _ ~slot:_ ~lo:_ ~hi:_ = () in
  { Soa.parallel = true; decide; feedback }

(* Run [run_slots ~nodes ~max_slots] once for warmup (steady-state scratch
   sizing), then measure minor words and wall-clock per slot over a fresh
   node set with identical streams. *)
let measure_engine ~n ~c ~seed ~slots run_slots =
  let warm_nodes = make_bench_nodes ~n ~c ~seed in
  ignore (run_slots ~nodes:warm_nodes ~max_slots:(min 16 slots));
  let nodes = make_bench_nodes ~n ~c ~seed in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore (run_slots ~nodes ~max_slots:slots);
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  ( words /. float_of_int slots,
    wall /. float_of_int slots *. 1e9 (* ns/slot *) )

(* SoA scaling: COGCAST at n up to 10^6 on a shared+random spectrum
   (C = 4c = 64, so the dense per-shard counting strategy applies), at
   1/2/8 intra-trial shards.

   Two measurements per n. The completion run (shards=1, default stop)
   answers "does a million-node broadcast complete, and in how long" —
   wall-clock includes every setup cost (per-node RNG split, topology
   caches). The per-slot rows isolate steady-state slot cost by
   differencing a long and a short fixed-slot run (stop disabled), which
   cancels the O(n) setup out of both ms/slot and words/slot; words/slot
   is shards=1 only because GC counters are per-domain and the workers'
   minor heaps are invisible from here.

   Shard rows are honest measurements on whatever cores the host has — on
   a single-core container they show the barrier overhead, not a speedup
   (see the recommended-domains note and EXPERIMENTS.md). *)
let bench_soa_scaling () =
  let configs =
    if !Bench_util.quick then [ 20_000 ] else [ 100_000; 1_000_000 ]
  in
  let shard_counts = [ 1; 2; 8 ] in
  let c = 16 and k = 4 in
  let long_slots = if !Bench_util.quick then 8 else 30 in
  let short_slots = long_slots / 2 in
  let t =
    Crn_stats.Table.create
      [ "n"; "C"; "shards"; "ms/slot"; "words/slot"; "speedup" ]
  in
  List.iter
    (fun n ->
      let topo_spec = { Topology.n; c; k } in
      let assignment =
        Topology.shared_plus_random (Rng.create (7 * n)) topo_spec
      in
      let availability = Dynamic.static assignment in
      let big_c = Crn_channel.Assignment.num_channels assignment in
      let budget = Crn_core.Complexity.cogcast_slots ~n ~c ~k () in
      let soa shards = Runner.Soa { shards; dense_channel_limit = None } in
      let run_fixed ~shards ~pool ~max_slots =
        Gc.minor ();
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        ignore
          (Cogcast.run ?pool ~backend:(soa shards) ~stop_when_complete:false
             ~source:0 ~availability ~rng:(Rng.create 4242) ~max_slots ());
        (Unix.gettimeofday () -. t0, Gc.minor_words () -. w0)
      in
      (* The headline: a full broadcast to completion, all costs included. *)
      let t0 = Unix.gettimeofday () in
      let r =
        Cogcast.run ~backend:(soa 1) ~source:0 ~availability
          ~rng:(Rng.create 4242) ~max_slots:budget ()
      in
      let complete_wall = Unix.gettimeofday () -. t0 in
      Bench_util.note
        "cogcast on soa n=%-7d C=%d: informed %d/%d in %d slots, %.2f s wall (setup included)"
        n big_c r.Crn_core.Cogcast.informed_count n
        r.Crn_core.Cogcast.slots_run complete_wall;
      let base_ms = ref 1.0 in
      List.iter
        (fun shards ->
          let pool =
            if shards > 1 then Some (Pool.create ~jobs:shards) else None
          in
          (* Unmeasured warmup: domain spawn and first-touch costs land
             here, not in the long run of the long-short difference. *)
          ignore (run_fixed ~shards ~pool ~max_slots:2);
          let long_wall, long_words =
            run_fixed ~shards ~pool ~max_slots:long_slots
          in
          let short_wall, short_words =
            run_fixed ~shards ~pool ~max_slots:short_slots
          in
          (match pool with Some p -> Pool.shutdown p | None -> ());
          let per_slot = float_of_int (long_slots - short_slots) in
          let ms_per_slot = (long_wall -. short_wall) /. per_slot *. 1e3 in
          let words_per_slot = (long_words -. short_words) /. per_slot in
          if shards = 1 then base_ms := ms_per_slot;
          Crn_stats.Table.add_row t
            [
              string_of_int n;
              string_of_int big_c;
              string_of_int shards;
              Printf.sprintf "%.2f" ms_per_slot;
              (if shards = 1 then Printf.sprintf "%.0f" words_per_slot else "-");
              Printf.sprintf "%.2f" (!base_ms /. ms_per_slot);
            ];
          Bench_util.note
            "cogcast on soa n=%-7d shards=%d: %.2f ms/slot steady-state, speedup %.2fx vs 1 shard"
            n shards ms_per_slot (!base_ms /. ms_per_slot))
        shard_counts)
    configs;
  Bench_util.note
    "host has %d recommended domains; shard speedups are only meaningful when shards <= that"
    (Pool.default_jobs ());
  Bench_util.print_table ~title:"COGCAST scaling on the SoA engine" t

let bench_engine () =
  Bench_util.header "MICRO"
    "Engine hot path: minor-heap words/slot and ns/slot, rewritten vs reference spec";
  let slots = if !Bench_util.quick then 400 else 2_000 in
  let configs =
    if !Bench_util.quick then [ (256, 32, 4) ]
    else [ (256, 32, 4); (1024, 32, 4); (4096, 32, 4) ]
  in
  let t =
    Crn_stats.Table.create
      [ "n"; "C"; "impl"; "words/slot"; "ns/slot"; "alloc x"; "wall x" ]
  in
  List.iter
    (fun (n, c, k) ->
      let topo_spec = { Topology.n; c; k } in
      let assignment = Topology.shared_core (Rng.create 42) topo_spec in
      let availability = Dynamic.static assignment in
      let big_c = Crn_channel.Assignment.num_channels assignment in
      let engine ~nodes ~max_slots =
        Engine.run ~availability ~rng:(Rng.create 99) ~nodes ~max_slots ()
      in
      let reference ~nodes ~max_slots =
        Reference.engine_run ~availability ~rng:(Rng.create 99) ~nodes
          ~max_slots ()
      in
      let soa ~nodes:_ ~max_slots =
        let protocol = make_soa_schedule_protocol ~n ~c ~seed:(7 * n) in
        ignore
          (Soa.run ~availability ~rng:(Rng.create 99) ~protocol ~max_slots ())
      in
      let new_words, new_ns = measure_engine ~n ~c ~seed:(7 * n) ~slots engine in
      let ref_words, ref_ns =
        measure_engine ~n ~c ~seed:(7 * n) ~slots reference
      in
      let soa_words, soa_ns = measure_engine ~n ~c ~seed:(7 * n) ~slots soa in
      let alloc_ratio = ref_words /. Float.max 1.0 new_words in
      let wall_ratio = ref_ns /. new_ns in
      let row impl words ns ar wr =
        Crn_stats.Table.add_row t
          [
            string_of_int n;
            string_of_int big_c;
            impl;
            Printf.sprintf "%.1f" words;
            Printf.sprintf "%.0f" ns;
            ar;
            wr;
          ]
      in
      row "reference" ref_words ref_ns "" "";
      row "engine" new_words new_ns
        (Printf.sprintf "%.1f" alloc_ratio)
        (Printf.sprintf "%.2f" wall_ratio);
      row "soa" soa_words soa_ns
        (Printf.sprintf "%.1f" (ref_words /. Float.max 1.0 soa_words))
        (Printf.sprintf "%.2f" (ref_ns /. soa_ns));
      Bench_util.note
        "n=%-5d engine %.1f words/slot vs reference %.1f (%.1fx fewer); %.0f ns/slot vs %.0f (%.2fx faster)"
        n new_words ref_words alloc_ratio new_ns ref_ns wall_ratio;
      Bench_util.note
        "n=%-5d soa    %.1f words/slot, %.0f ns/slot (%.2fx vs engine; shared_core C=%d runs the sparse O(n)-scan strategy)"
        n soa_words soa_ns (new_ns /. soa_ns) big_c)
    configs;
  (* The emulation layer at one representative point. *)
  let n, c, k = (256, 32, 4) in
  let topo_spec = { Topology.n; c; k } in
  let assignment = Topology.shared_core (Rng.create 43) topo_spec in
  let availability = Dynamic.static assignment in
  let big_c = Crn_channel.Assignment.num_channels assignment in
  let emu_slots = max 100 (slots / 4) in
  let emulation ~nodes ~max_slots =
    ignore
      (Emulation.run ~availability ~rng:(Rng.create 99) ~nodes ~max_slots ());
    ()
  in
  let emu_reference ~nodes ~max_slots =
    ignore
      (Reference.emulation_run ~availability ~rng:(Rng.create 99) ~nodes
         ~max_slots ());
    ()
  in
  let new_words, new_ns =
    measure_engine ~n ~c ~seed:(7 * n) ~slots:emu_slots emulation
  in
  let ref_words, ref_ns =
    measure_engine ~n ~c ~seed:(7 * n) ~slots:emu_slots emu_reference
  in
  let alloc_ratio = ref_words /. Float.max 1.0 new_words in
  Crn_stats.Table.add_row t
    [
      string_of_int n;
      string_of_int big_c;
      "emulation-ref";
      Printf.sprintf "%.1f" ref_words;
      Printf.sprintf "%.0f" ref_ns;
      "";
      "";
    ];
  Crn_stats.Table.add_row t
    [
      string_of_int n;
      string_of_int big_c;
      "emulation";
      Printf.sprintf "%.1f" new_words;
      Printf.sprintf "%.0f" new_ns;
      Printf.sprintf "%.1f" alloc_ratio;
      Printf.sprintf "%.2f" (ref_ns /. new_ns);
    ];
  Bench_util.print_table t;
  bench_soa_scaling ()

let bench_rng =
  Test.make ~name:"rng/draws-1k"
    (Staged.stage (fun () ->
         let rng = Rng.create 1 in
         let acc = ref 0 in
         for _ = 1 to 1000 do
           acc := !acc + Rng.int rng 16
         done;
         !acc))

let bench_bitset =
  Test.make ~name:"channel/bitset-overlap-1k"
    (Staged.stage (fun () ->
         let a = Bitset.of_array 512 (Array.init 64 (fun i -> i * 3)) in
         let b = Bitset.of_array 512 (Array.init 64 (fun i -> i * 5)) in
         let acc = ref 0 in
         for _ = 1 to 1000 do
           acc := !acc + Bitset.inter_cardinal a b
         done;
         !acc))

let bench_topology =
  Test.make ~name:"channel/shared-core-gen"
    (Staged.stage (fun () -> Topology.shared_core (Rng.create 2) spec))

(* E1-E5 kernel: one COGCAST broadcast on a 64-node network. *)
let bench_cogcast =
  Test.make ~name:"broadcast/cogcast-n64"
    (Staged.stage (fun () ->
         let rng = Rng.create 3 in
         let assignment = Topology.shared_core rng spec in
         Cogcast.run_static ~source:0 ~assignment ~k:4 ~rng ()))

(* E6-E7 kernel: one full COGCOMP aggregation. *)
let bench_cogcomp =
  Test.make ~name:"aggregation/cogcomp-n64"
    (Staged.stage (fun () ->
         let rng = Rng.create 4 in
         let assignment = Topology.shared_core rng spec in
         let values = Array.init 64 (fun i -> i) in
         Cogcomp.run ~monoid:Aggregate.sum ~values ~source:0 ~assignment ~k:4 ~rng ()))

(* E8 kernel: one bipartite hitting game. *)
let bench_game =
  Test.make ~name:"games/bipartite-c16k4"
    (Staged.stage (fun () ->
         let rng = Rng.create 5 in
         Hitting_game.play_bipartite ~rng ~c:16 ~k:4
           ~player:(Players.uniform rng ~c:16) ~max_rounds:100_000))

(* E13 kernel: one decay backoff session. *)
let bench_backoff =
  Test.make ~name:"backoff/session-m64"
    (Staged.stage (fun () ->
         Backoff.session ~rng:(Rng.create 6) ~contenders:64 ~cap:10_000))

(* E4/E7 kernel: the rendezvous baseline broadcast. *)
let bench_baseline =
  Test.make ~name:"baseline/rendezvous-broadcast-n64"
    (Staged.stage (fun () ->
         let rng = Rng.create 7 in
         let assignment = Topology.shared_core rng spec in
         let availability = Dynamic.static assignment in
         let { Topology.n; c; k } = spec in
         let budget = Crn_core.Complexity.rendezvous_broadcast ~n ~c ~k in
         Runner.drive
           (Runner.make ~availability ~rng ())
           (Crn_rendezvous.Broadcast_baseline.machine ~source:0 ~availability ~rng)
           ~max_slots:(int_of_float (Float.ceil (8.0 *. budget)))))

(* E10 kernel: the hop-together scan. *)
let bench_scan =
  Test.make ~name:"baseline/seq-scan-n16"
    (Staged.stage (fun () ->
         let a =
           Topology.shared_core ~global_labels:true (Rng.create 8)
             { Topology.n = 16; c = 32; k = 31 }
         in
         Runner.drive
           (Runner.make ~availability:(Dynamic.static a) ~rng:(Rng.create 9) ())
           (Crn_rendezvous.Seq_scan.machine ~source:0 ~assignment:a)
           ~max_slots:10_000))

(* E12 kernel: one slot's worth of jamming-reduction availability. *)
let bench_jamming_reduction =
  Test.make ~name:"radio/jamming-reduction-slot"
    (Staged.stage (fun () ->
         let jammer =
           Crn_radio.Jammer.random_per_node ~seed:10L ~budget:4 ~num_channels:16
         in
         let d =
           Crn_radio.Jamming_reduction.availability_of_jammer ~num_nodes:16
             ~num_channels:16 ~jammer ()
         in
         Crn_channel.Dynamic.at d 0))

(* E15 kernel: a first-hit sample. *)
let bench_first_hit =
  Test.make ~name:"games/first-hit-c32"
    (Staged.stage (fun () ->
         let rng = Rng.create 11 in
         Crn_games.First_hit.sample ~rng ~c:32 ~k:4
           ~strategy:(Crn_games.First_hit.uniform_strategy rng ~c:32)))

(* E22 kernel: COGCAST over raw-radio emulation. *)
let bench_emulated =
  Test.make ~name:"broadcast/cogcast-emulated-n32"
    (Staged.stage (fun () ->
         let rng = Rng.create 12 in
         let assignment = Topology.shared_core rng { Topology.n = 32; c = 8; k = 4 } in
         Cogcast.run
           ~backend:(Runner.Emulation { strategy = Emulation.Decay; session_cap = None })
           ~source:0
           ~availability:(Crn_channel.Dynamic.static assignment) ~rng
           ~max_slots:2_000 ()))

let tests =
  [
    bench_rng;
    bench_bitset;
    bench_topology;
    bench_cogcast;
    bench_cogcomp;
    bench_game;
    bench_backoff;
    bench_baseline;
    bench_scan;
    bench_jamming_reduction;
    bench_first_hit;
    bench_emulated;
  ]

let run () =
  print_newline ();
  print_endline "==============================================";
  print_endline "[MICRO] Bechamel kernel throughput (monotonic clock)";
  print_endline "==============================================";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let t = Crn_stats.Table.create [ "kernel"; "time/run"; "r^2" ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols (Instance.monotonic_clock) raw in
          ignore raw;
          let time_ns =
            match Analyze.OLS.estimates est with
            | Some [ v ] -> v
            | _ -> Float.nan
          in
          let r2 =
            match Analyze.OLS.r_square est with Some r -> r | None -> Float.nan
          in
          let pretty =
            if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
            else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
            else Printf.sprintf "%.0f ns" time_ns
          in
          Crn_stats.Table.add_row t [ name; pretty; Printf.sprintf "%.4f" r2 ])
        results)
    tests;
  Crn_stats.Table.print t
