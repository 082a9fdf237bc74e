(* Differential tests for the struct-of-arrays engine, the one slot loop
   behind {!Engine.run} and every abstract-slot backend, against its
   executable specification {!Reference.engine_run}.

   Claims, property-tested over randomized scenarios (topology shape,
   dynamic availability, jammers, faults, early stops — all derived from
   one seed, n up to 256):

   1. Traced equivalence: a traced {!Soa.run} is observationally
      identical to a traced {!Reference.engine_run} driving the same
      adversarial digest protocol — same outcome, counters, metrics,
      per-node feedback digests, and byte-equal JSONL traces.

   2. Shard invariance: the untraced fast path produces identical
      digests/counters/metrics at shards 1, 2 and 8, with the dense and
      the forced-sparse (dense_channel_limit = 0) counting strategies,
      all matching the specification.

   3. Registry audit: every machine entry on the soa backend matches the
      same entry on the reference backend, and COGCAST on the soa backend
      is shard-invariant.

   4. Tracing is transparent: traced and untraced runs deliver feedback
      in the same ascending node order, so COGCOMP (on the engine and on
      the decay and CSMA emulations) and robust COGCOMP give the same
      results either way — and the same results on the reference and on
      the sharded soa backend, with engine and reference traces equal
      event for event. *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Dynamic = Crn_channel.Dynamic
module Engine = Crn_radio.Engine
module Reference = Crn_radio.Reference
module Soa = Crn_radio.Soa
module Action = Crn_radio.Action
module Trace = Crn_radio.Trace
module Metrics = Crn_radio.Metrics
module Jammer = Crn_radio.Jammer
module Faults = Crn_radio.Faults
module Cogcast = Crn_core.Cogcast

(* ------------------------------------------------------------------ *)
(* The adversarial digest protocol of test_determinism.ml, in both node
   shapes: every node draws a label and a broadcast/listen coin from its
   own stream each slot and folds every feedback into an order-sensitive
   digest. The two shapes must consume randomness identically and
   classify outcomes identically for the digests to agree. *)

let mix d x = (d * 1000003) lxor x

let engine_nodes ~seed ~n ~c ~digests =
  let node_rngs = Rng.split_n (Rng.create seed) n in
  Array.init n (fun i ->
      Engine.node ~id:i
        ~decide:(fun ~slot:_ ->
          let label = Rng.int node_rngs.(i) c in
          if Rng.bool node_rngs.(i) then Action.broadcast ~label ((i * 7919) + label)
          else Action.listen ~label)
        ~feedback:(fun ~slot fb ->
          let d = mix digests.(i) slot in
          digests.(i) <-
            (match fb with
            | Action.Heard { sender; msg } -> mix (mix (mix d 1) sender) msg
            | Action.Silence -> mix d 2
            | Action.Won -> mix d 3
            | Action.Lost { winner; msg } -> mix (mix (mix d 4) winner) msg
            | Action.Jammed -> mix d 5
            | Action.No_winner -> mix d 6)))

let soa_protocol ~seed ~n ~c ~digests =
  let node_rngs = Rng.split_n (Rng.create seed) n in
  let decide t ~slot:_ ~lo ~hi =
    for i = lo to hi - 1 do
      if not (Soa.is_down t i) then begin
        let label = Rng.int node_rngs.(i) c in
        if Rng.bool node_rngs.(i) then
          Soa.set_broadcast t i ~label ~msg:((i * 7919) + label)
        else Soa.set_listen t i ~label
      end
    done
  in
  let feedback t ~slot ~lo ~hi =
    for i = lo to hi - 1 do
      let d = mix digests.(i) slot in
      if Soa.heard t i then
        digests.(i) <- mix (mix (mix d 1) (Soa.sender t i)) (Soa.message t i)
      else if Soa.silent t i then digests.(i) <- mix d 2
      else if Soa.won t i then digests.(i) <- mix d 3
      else if Soa.lost t i then
        digests.(i) <- mix (mix (mix d 4) (Soa.sender t i)) (Soa.message t i)
      else if Soa.was_jammed t i then digests.(i) <- mix d 5
    done
  in
  { Soa.parallel = true; decide; feedback }

(* ------------------------------------------------------------------ *)
(* Randomized scenarios, the test_determinism recipe widened to n <= 256.
   Reactive jammers are stateful, so each run builds a fresh one. *)

type scenario = {
  n : int;
  c : int;
  availability : Dynamic.t;
  jammer : unit -> Jammer.t;
  faults : Faults.t;
  stop_at : int option;
  max_slots : int;
}

let scenario seed =
  let rng = Rng.create (77_000 + seed) in
  let n = 2 + Rng.int rng 255 in
  let c = 2 + Rng.int rng 8 in
  let k = 1 + Rng.int rng (min 3 c) in
  let spec = { Topology.n; c; k } in
  let kind =
    match seed mod 3 with
    | 0 -> Topology.Shared_core
    | 1 -> Topology.Shared_plus_random
    | _ -> Topology.Clustered
  in
  let assignment = Topology.generate kind rng spec in
  let availability =
    if seed mod 5 = 0 then Dynamic.rotating assignment else Dynamic.static assignment
  in
  let num_channels = Crn_channel.Assignment.num_channels assignment in
  let jammer () =
    match seed mod 4 with
    | 0 ->
        Jammer.random_per_node
          ~seed:(Int64.of_int (seed * 77))
          ~budget:1 ~num_channels
    | 1 -> Jammer.reactive ()
    | _ -> Jammer.none
  in
  let faults =
    if seed mod 2 = 0 then
      Faults.random_naps ~seed:(Int64.of_int (seed * 131)) ~rate:0.15
    else Faults.none
  in
  let stop_at = if seed mod 6 = 0 then Some (5 + (seed mod 7)) else None in
  { n; c; availability; jammer; faults; stop_at; max_slots = 30 }

type output = {
  out_slots : int;
  out_stopped : bool;
  out_counters : int list;
  out_trace : string;
  out_metrics : int list;
  out_digests : int array;
}

let counters_fields (c : Trace.Counters.t) =
  [
    c.Trace.Counters.slots_run;
    c.Trace.Counters.broadcasts;
    c.Trace.Counters.wins;
    c.Trace.Counters.contended;
    c.Trace.Counters.deliveries;
    c.Trace.Counters.jammed_actions;
  ]

let metrics_fields (m : Metrics.t) =
  Array.to_list m.Metrics.transmissions
  @ Array.to_list m.Metrics.receptions
  @ Array.to_list m.Metrics.awake_slots
  @ Array.to_list m.Metrics.jammed

let run_reference sc ~seed ~traced =
  let digests = Array.make sc.n 0 in
  let nodes = engine_nodes ~seed ~n:sc.n ~c:sc.c ~digests in
  let tr = if traced then Some (Trace.create ()) else None in
  let m = Metrics.create sc.n in
  let stop = Option.map (fun at -> fun ~slot -> slot >= at) sc.stop_at in
  let outcome =
    Reference.engine_run ?stop ?trace:tr ~jammer:(sc.jammer ()) ~faults:sc.faults
      ~metrics:m ~availability:sc.availability
      ~rng:(Rng.create (seed * 17))
      ~nodes ~max_slots:sc.max_slots ()
  in
  {
    out_slots = outcome.Engine.slots_run;
    out_stopped = outcome.Engine.stopped_early;
    out_counters = counters_fields outcome.Engine.counters;
    out_trace = (match tr with Some tr -> Trace.to_jsonl tr | None -> "");
    out_metrics = metrics_fields m;
    out_digests = digests;
  }

let run_soa sc ~seed ~traced ~shards ~dense_channel_limit =
  let digests = Array.make sc.n 0 in
  let protocol = soa_protocol ~seed ~n:sc.n ~c:sc.c ~digests in
  let tr = if traced then Some (Trace.create ()) else None in
  let m = Metrics.create sc.n in
  let stop = Option.map (fun at -> fun ~slot -> slot >= at) sc.stop_at in
  let outcome =
    Soa.run ?stop ?trace:tr ~shards ~dense_channel_limit ~jammer:(sc.jammer ())
      ~faults:sc.faults ~metrics:m ~availability:sc.availability
      ~rng:(Rng.create (seed * 17))
      ~protocol ~max_slots:sc.max_slots ()
  in
  {
    out_slots = outcome.Soa.slots_run;
    out_stopped = outcome.Soa.stopped_early;
    out_counters = counters_fields outcome.Soa.counters;
    out_trace = (match tr with Some tr -> Trace.to_jsonl tr | None -> "");
    out_metrics = metrics_fields m;
    out_digests = digests;
  }

let diff label a b =
  if a.out_slots <> b.out_slots then
    Some (Printf.sprintf "%s: slots_run %d <> %d" label a.out_slots b.out_slots)
  else if a.out_stopped <> b.out_stopped then
    Some (label ^ ": stopped_early differs")
  else if a.out_counters <> b.out_counters then Some (label ^ ": counters differ")
  else if a.out_metrics <> b.out_metrics then Some (label ^ ": metrics differ")
  else if a.out_digests <> b.out_digests then
    Some (label ^ ": feedback digests differ")
  else if a.out_trace <> b.out_trace then Some (label ^ ": trace bytes differ")
  else None

(* Claim 1: traced SoA = traced specification, byte for byte. *)
let prop_traced_equivalence seed =
  let sc = scenario seed in
  let reference = run_reference sc ~seed ~traced:true in
  let soa = run_soa sc ~seed ~traced:true ~shards:1 ~dense_channel_limit:4096 in
  diff "traced" reference soa

(* Claim 2: the fast path matches the specification at every shard count
   and with both counting strategies. *)
let prop_shard_invariance seed =
  let sc = scenario seed in
  let reference = run_reference sc ~seed ~traced:false in
  let variants =
    [
      ("shards=1 dense", 1, 4096);
      ("shards=2 dense", 2, 4096);
      ("shards=8 dense", 8, 4096);
      ("shards=1 sparse", 1, 0);
      ("shards=8 sparse", 8, 0);
    ]
  in
  List.fold_left
    (fun acc (label, shards, dense_channel_limit) ->
      match acc with
      | Some _ -> acc
      | None ->
          diff label reference
            (run_soa sc ~seed ~traced:false ~shards ~dense_channel_limit))
    None variants

(* Claim 3, COGCAST half: on the soa backend the untraced fast path
   reproduces the same result and distribution tree at shards 1/2/8. *)

module Runner = Crn_radio.Runner

let cogcast_on_soa ~seed ~n ~c ~k ~shards =
  let rng = Rng.create seed in
  let assignment = Topology.shared_core rng { Topology.n; c; k } in
  Cogcast.run
    ~backend:(Runner.Soa { shards; dense_channel_limit = None })
    ~source:0
    ~availability:(Dynamic.static assignment)
    ~rng ~max_slots:400 ()

let tree_fields (r : Cogcast.result) =
  ( r.Cogcast.completed_at,
    r.Cogcast.slots_run,
    r.Cogcast.informed_count,
    Array.to_list r.Cogcast.parent,
    Array.to_list r.Cogcast.informed_at,
    Array.to_list r.Cogcast.informed_label,
    counters_fields r.Cogcast.counters )

let prop_cogcast_shard_invariance seed =
  let n = 2 + (seed mod 120) and c = 6 and k = 2 in
  let base = tree_fields (cogcast_on_soa ~seed ~n ~c ~k ~shards:1) in
  List.fold_left
    (fun acc shards ->
      match acc with
      | Some _ -> acc
      | None ->
          if tree_fields (cogcast_on_soa ~seed ~n ~c ~k ~shards) <> base then
            Some (Printf.sprintf "cogcast diverges at shards=%d" shards)
          else None)
    None [ 2; 8 ]

(* Claim 3, machine half — the universal-backend audit: every of_machine
   registry entry produces a byte-equal summary on the soa backend at
   shards {1, 2, 8}, with both occupancy strategies (dense and
   forced-sparse), and a byte-equal trace from a traced run — all
   against the same entry on the reference backend. Scenarios randomize
   dims, topology and a nap schedule; each run gets a fresh rng from the
   same seed, so any divergence is the backend's. *)

let prop_registry_machines seed =
  let scenario_rng = Rng.create (311_000 + seed) in
  let n = 2 + Rng.int scenario_rng 62 in
  let c = 2 + Rng.int scenario_rng 7 in
  let k = 1 + Rng.int scenario_rng (min 3 c) in
  let kind =
    match seed mod 3 with
    | 0 -> Topology.Shared_core
    | 1 -> Topology.Shared_plus_random
    | _ -> Topology.Clustered
  in
  let assignment = Topology.generate kind scenario_rng { Topology.n; c; k } in
  let faults =
    if seed mod 2 = 0 then
      Some (Faults.random_naps ~seed:(Int64.of_int (seed * 131)) ~rate:0.1)
    else None
  in
  let run name ~backend ~traced =
    let proto = Option.get (Crn_proto.Registry.find name) in
    let tr = if traced then Some (Trace.create ()) else None in
    let env =
      Crn_proto.Protocol.env ?faults ?trace:tr ~backend ~k
        ~availability:(Dynamic.static assignment)
        ~rng:(Rng.create (seed * 17))
        ()
    in
    let s = Crn_proto.Protocol.run proto env in
    ( Crn_stats.Json.to_string (Crn_proto.Protocol.summary_json s),
      match tr with Some tr -> Trace.to_jsonl tr | None -> "" )
  in
  let soa shards dense_channel_limit = Runner.Soa { shards; dense_channel_limit } in
  let variants =
    [
      ("shards=1 dense", soa 1 None);
      ("shards=2 dense", soa 2 None);
      ("shards=8 dense", soa 8 None);
      ("shards=2 sparse", soa 2 (Some 0));
      ("shards=8 sparse", soa 8 (Some 0));
    ]
  in
  List.fold_left
    (fun acc name ->
      match acc with
      | Some _ -> acc
      | None -> (
          let reference_summary, _ =
            run name ~backend:Runner.Reference ~traced:false
          in
          let fast_mismatch =
            List.fold_left
              (fun acc (label, backend) ->
                match acc with
                | Some _ -> acc
                | None ->
                    let s, _ = run name ~backend ~traced:false in
                    if s <> reference_summary then
                      Some (Printf.sprintf "%s: soa %s summary differs" name label)
                    else None)
              None variants
          in
          match fast_mismatch with
          | Some _ as m -> m
          | None ->
              let rs, rt =
                run name ~backend:Runner.Reference ~traced:true
              in
              let ss, st = run name ~backend:(soa 2 None) ~traced:true in
              if rt <> st then Some (name ^ ": traced soa trace differs")
              else if rs <> ss then Some (name ^ ": traced soa summary differs")
              else None))
    None
    (Crn_proto.Registry.machine_names ())

(* Rejection contract: the shard count lives in the soa backend, so
   --shards > 1 with any other backend is a user error at the CLI, reported
   before any trial runs, never silently ignored. *)
let test_shards_rejected () =
  List.iter
    (fun backend ->
      List.iter
        (fun cmd ->
          let cmd = Printf.sprintf "%s --backend %s --shards 2" cmd backend in
          let code, out = Cli.run cmd in
          Alcotest.(check int) cmd Cli.cli_error code;
          Alcotest.(check string) (cmd ^ ": nothing printed") "" out)
        [
          "run -p cogcast -n 16 --trials 1 --jobs 1";
          "chaos -n 16 --trials 1 --jobs 1 --protocols gossip --rates 0";
        ])
    [ "engine"; "reference"; "emulation" ];
  let code, _ =
    Cli.run "run -p seq_scan -n 16 --trials 1 --jobs 1 --backend soa --shards 2"
  in
  Alcotest.(check int) "the soa backend honors --shards 2" 0 code

(* Claim 4: tracing never changes results. Traced runs take the same loop
   at one shard with the same ascending-node feedback order, so COGCOMP —
   on the engine and on both emulation strategies, where raw rounds and
   failed sessions must also agree — and robust COGCOMP give equal results
   traced and untraced. Both protocols take one backend through every
   phase, so they also give the engine's results on the reference (trace
   events included) and on the soa backend at 2 and 8 shards. Plain
   COGCOMP runs fault-free (its phases assume it); robust COGCOMP also
   runs under nap, crash-restart and churn schedules, which arm its
   watchdogs and retries. *)

module Aggregate = Crn_core.Aggregate
module Cogcomp = Crn_core.Cogcomp
module Emulation = Crn_radio.Emulation

let prop_cogcomp_order_independent seed =
  let rng = Rng.create (523_000 + seed) in
  let n = 2 + Rng.int rng 40 in
  let c = 2 + Rng.int rng 7 in
  let k = 1 + Rng.int rng (min 3 c) in
  let kind =
    match seed mod 3 with
    | 0 -> Topology.Shared_core
    | 1 -> Topology.Shared_plus_random
    | _ -> Topology.Clustered
  in
  let assignment = Topology.generate kind rng { Topology.n; c; k } in
  let source = Rng.int rng n in
  let values = Array.init n (fun v -> (v * 31) + 7) in
  let faults =
    match seed mod 4 with
    | 0 -> None
    | 1 -> Some (Faults.random_naps ~seed:(Int64.of_int seed) ~rate:0.1)
    | 2 ->
        Some
          (Faults.crash_restart ~node:(Rng.int rng n) ~from_slot:(Rng.int rng 40)
             ~down_for:(1 + Rng.int rng 30))
    | _ ->
        Some
          (Faults.bernoulli_churn ~seed:(Int64.of_int seed) ~mean_up:40.0
             ~mean_down:4.0)
  in
  (* Each run returns its result fields and, when traced, its events. *)
  let traced_run traced f =
    let trace = if traced then Some (Trace.create ()) else None in
    let fields = f trace in
    (fields, match trace with Some tr -> Trace.to_list tr | None -> [])
  in
  let plain ?backend traced =
    traced_run traced (fun trace ->
        let r =
          Cogcomp.run ?backend ?trace ~monoid:Aggregate.sum ~values ~source
            ~assignment ~k ~rng:(Rng.create seed) ()
        in
        ( r.Cogcomp.root_value,
          [ r.Cogcomp.phase1_slots; r.Cogcomp.phase2_slots; r.Cogcomp.phase3_slots;
            r.Cogcomp.phase4_steps; r.Cogcomp.phase4_slots; r.Cogcomp.total_slots ],
          r.Cogcomp.terminated,
          r.Cogcomp.mediators,
          r.Cogcomp.tree,
          counters_fields r.Cogcomp.counters,
          (r.Cogcomp.raw_rounds, r.Cogcomp.failed_sessions) ))
  in
  let robust ?backend traced =
    traced_run traced (fun trace ->
        let r =
          Cogcomp.run ~recover:true ?backend ?faults ?trace ~monoid:Aggregate.sum
            ~values ~source ~assignment ~k ~rng:(Rng.create seed) ()
        in
        ( ( r.Cogcomp.root_value,
            r.Cogcomp.coverage,
            r.Cogcomp.lost,
            r.Cogcomp.reelections,
            r.Cogcomp.retries ),
          [ r.Cogcomp.phase1_slots; r.Cogcomp.phase2_slots;
            r.Cogcomp.phase3_slots; r.Cogcomp.phase4_steps;
            r.Cogcomp.phase4_slots; r.Cogcomp.total_slots ],
          r.Cogcomp.terminated,
          r.Cogcomp.mediators,
          r.Cogcomp.tree,
          counters_fields r.Cogcomp.counters ))
  in
  (* Eight shards oversubscribe a small host's cores, and every COGCOMP
     phase then pays for the barrier waits: one scenario in five runs them. *)
  let shard_counts = if Rng.int rng 5 = 0 then [ 2; 8 ] else [ 2 ] in
  let soa shards = Runner.Soa { shards; dense_channel_limit = None } in
  let emulation strategy = Runner.Emulation { strategy; session_cap = None } in
  (* [run] on every backend against its engine run: untraced results agree
     on reference and soa at 2 and 8 shards; traced, the engine agrees
     with its untraced self and with the reference, event for event. *)
  let check_backends name run =
    let engine, _ = run ?backend:None false in
    let engine_traced, engine_events = run ?backend:None true in
    let reference_traced, reference_events = run ?backend:(Some Runner.Reference) true in
    if engine_traced <> engine then Some (name ^ ": traced and untraced results differ")
    else if reference_traced <> engine then Some (name ^ ": reference results differ")
    else if reference_events <> engine_events then Some (name ^ ": reference trace differs")
    else
      List.find_map
        (fun shards ->
          if fst (run ?backend:(Some (soa shards)) false) <> engine then
            Some (Printf.sprintf "%s: soa shards=%d results differ" name shards)
          else None)
        shard_counts
  in
  let emulated strategy traced = fst (plain ~backend:(emulation strategy) traced) in
  let faults_name =
    match faults with Some f -> Faults.to_string f | None -> "none"
  in
  match check_backends (Printf.sprintf "cogcomp n=%d" n) plain with
  | Some _ as failure -> failure
  | None ->
      if emulated Emulation.Decay false <> emulated Emulation.Decay true then
        Some (Printf.sprintf "cogcomp on decay emulation n=%d: traced and untraced differ" n)
      else if emulated Emulation.Csma false <> emulated Emulation.Csma true then
        Some (Printf.sprintf "cogcomp on csma emulation n=%d: traced and untraced differ" n)
      else
        check_backends
          (Printf.sprintf "cogcomp_robust n=%d faults=%s" n faults_name)
          robust

let seed_gen = Prop.int_range 1 100_000

let test_traced () =
  Prop.check ~count:40 ~name:"soa traced = reference traced" seed_gen
    prop_traced_equivalence

let test_shards () =
  Prop.check ~count:30 ~name:"soa fast path shard/strategy invariant" seed_gen
    prop_shard_invariance

let test_registry_machines () =
  Prop.check ~count:12 ~name:"registry machines: soa = reference" seed_gen
    prop_registry_machines

let test_cogcast () =
  Prop.check ~count:25 ~name:"cogcast on soa shard-invariant" seed_gen
    prop_cogcast_shard_invariance

let test_cogcomp_order () =
  Prop.check ~count:30 ~name:"cogcomp traced = untraced" seed_gen
    prop_cogcomp_order_independent

(* The registry entry behind --backend soa --shards: the same summary as
   cogcast on the default engine backend. *)
let test_registry_entry () =
  let module Protocol = Crn_proto.Protocol in
  let module Registry = Crn_proto.Registry in
  let summary backend =
    let rng = Rng.create 99 in
    let assignment = Topology.shared_core rng { Topology.n = 64; c = 8; k = 2 } in
    let env =
      Protocol.env ~backend ~availability:(Dynamic.static assignment) ~rng ()
    in
    let s = Protocol.run (Registry.find_exn "cogcast") env in
    (s.Protocol.slots_run, s.Protocol.completed_at, s.Protocol.coverage)
  in
  let engine = summary Runner.Engine in
  List.iter
    (fun shards ->
      Alcotest.(check bool)
        (Printf.sprintf "registry cogcast soa shards=%d = engine" shards)
        true
        (summary (Runner.Soa { shards; dense_channel_limit = None }) = engine))
    [ 1; 2; 8 ]

(* The node-array wrapper is the machine path. COGCAST's machine, handed
   to the engine as an Engine.node array (as the benchmark does) — through
   Engine.run, and through Soa_adapter.protocol on Soa.run at 2 shards —
   gives the same outcome, counters, result and trace bytes as the same
   machine through Runner.drive on the engine and the 2-shard soa
   backend. Random naps make nodes sit out slots. *)
let test_node_array_wrapper () =
  let module Runner = Crn_radio.Runner in
  let module Soa_adapter = Crn_radio.Soa_adapter in
  let n = 96 and c = 8 in
  let availability =
    Dynamic.static
      (Topology.shared_plus_random (Rng.create 5) { Topology.n; c; k = 2 })
  in
  let faults = Faults.random_naps ~seed:3L ~rate:0.1 in
  let max_slots = 400 in
  let machine traced =
    let rng = Rng.create 11 in
    let trace = if traced then Some (Trace.create ()) else None in
    (Cogcast.machine ?trace ~source:0 ~availability ~rng (), rng, trace)
  in
  let observe (r : Cogcast.result) (o_slots, o_early, o_counters) trace =
    ( (o_slots, o_early, counters_fields o_counters),
      (r.Cogcast.completed_at, r.Cogcast.informed_count, r.Cogcast.parent,
       r.Cogcast.informed_at),
      match trace with Some tr -> Trace.to_jsonl tr | None -> "" )
  in
  let via_nodes ~shards traced =
    let m, rng, trace = machine traced in
    let nodes =
      Array.init n (fun v ->
          Engine.node ~id:v
            ~decide:(fun ~slot -> m.Cogcast.decide ~node:v ~slot)
            ~feedback:(fun ~slot fb -> m.Cogcast.feedback ~node:v ~slot fb))
    in
    let stop ~slot:_ = m.Cogcast.finished () in
    let o =
      if shards = 1 then
        Engine.run ?trace ~faults ~stop ~availability ~rng ~nodes ~max_slots ()
      else
        Soa.run ~shards ?trace ~faults ~stop ~availability ~rng
          ~protocol:(Soa_adapter.protocol ~parallel:true nodes) ~max_slots ()
    in
    let s = o.Engine.slots_run in
    observe (m.Cogcast.snapshot ~slots_run:s) (s, o.Engine.stopped_early, o.Engine.counters)
      trace
  in
  let via_drive ~shards traced =
    let m, rng, trace = machine traced in
    let backend =
      if shards = 1 then Runner.Engine
      else Runner.Soa { shards; dense_channel_limit = None }
    in
    let runner =
      Runner.make ~machine_parallel:true ~faults ?trace ~backend ~availability ~rng ()
    in
    let r, o = Runner.drive runner m ~max_slots in
    observe r (o.Runner.slots_run, o.Runner.stopped_early, o.Runner.counters) trace
  in
  List.iter
    (fun (shards, traced) ->
      let label =
        Printf.sprintf "shards=%d%s" shards (if traced then " traced" else "")
      in
      let ((_, _, tr) as nodes) = via_nodes ~shards traced in
      Alcotest.(check bool) (label ^ ": node array = machine") true
        (nodes = via_drive ~shards traced);
      Alcotest.(check bool) (label ^ ": trace recorded") traced (tr <> ""))
    [ (1, false); (1, true); (2, false); (2, true) ]

let () =
  Alcotest.run "soa"
    [
      ( "differential",
        [
          Alcotest.test_case "traced twin byte-equal to reference" `Quick
            test_traced;
          Alcotest.test_case "fast path shard & strategy invariant" `Quick
            test_shards;
          Alcotest.test_case "node-array wrapper = machine via drive" `Quick
            test_node_array_wrapper;
        ] );
      ( "registry audit",
        [
          Alcotest.test_case "every of_machine entry: soa = reference" `Quick
            test_registry_machines;
          Alcotest.test_case "shards > 1 rejected off the soa backend" `Quick
            test_shards_rejected;
        ] );
      ( "cogcast",
        [
          Alcotest.test_case "soa backend shard-invariant" `Quick test_cogcast;
          Alcotest.test_case "registry entry honors soa shards" `Quick
            test_registry_entry;
        ] );
      ( "feedback order",
        [
          Alcotest.test_case "cogcomp and cogcomp_robust: traced = untraced"
            `Quick test_cogcomp_order;
        ] );
    ]
