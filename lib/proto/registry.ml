module Dynamic = Crn_channel.Dynamic
module Assignment = Crn_channel.Assignment
module Json = Crn_stats.Json
module Cogcast = Crn_core.Cogcast
module Cogcomp = Crn_core.Cogcomp
module Aggregate = Crn_core.Aggregate
module Complexity = Crn_core.Complexity

let dims (env : Protocol.env) =
  (Dynamic.num_nodes env.availability, Dynamic.channels_per_node env.availability)

(* The rendezvous baselines' default budget: [budget_factor] (default 8)
   times the closed-form bound, at least one slot. *)
let scaled_budget (env : Protocol.env) base =
  let factor = Option.value env.budget_factor ~default:8.0 in
  max 1 (int_of_float (Float.ceil (factor *. base)))

let frac num den = float_of_int num /. float_of_int den

(* The CLI/bench aggregation payload: every aggregation protocol folds the
   integer sum of the node ids 0..n-1, so completeness is checkable against
   the closed form n(n-1)/2. *)
let id_values n = Array.init n (fun v -> v)

(* What each entry supports, declared where it is packed. A single engine
   run honors every per-run feature, except that the global-label schedules
   (seq_scan, deterministic) build their channel tables from the slot-0
   assignment and so need a static spectrum; the COGCOMPs run four phases
   on the slot-0 assignment, with no single slot budget and no per-node
   metrics; only the workloads read an offered load. *)
let single_run =
  { Protocol.dynamic = true; max_slots = true; metrics = true; load = false }

let static_schedule = { single_run with Protocol.dynamic = false }
let with_load = { single_run with Protocol.load = true }

let multi_phase =
  { Protocol.dynamic = false; max_slots = false; metrics = false; load = false }

let count_report env ~completed_at ~key count : Protocol.report =
  let n, _ = dims env in
  {
    Protocol.completed_at;
    coverage = frac count n;
    detail = Json.Obj [ (key, Json.Int count) ];
  }

(* ---- the paper's protocols. COGCAST is a machine entry, driven exactly
   as [Cogcast.run] drives it; the COGCOMPs delegate to [Cogcomp.run].
   Either way a registry-dispatched run is byte-identical to a direct
   call ---- *)

let cogcast =
  Protocol.of_machine ~name:"cogcast" ~capabilities:single_run
    ~synopsis:"Epidemic local broadcast in O((c/k) max{1,c/n} lg n) slots (S4, Thm 4)"
    (* Per-node RNG streams, own-index writes, atomic informed counter. *)
    ~shardable:true
    ~budget:(fun env ->
      let n, c = dims env in
      Complexity.cogcast_slots ?factor:env.Protocol.budget_factor ~n ~c
        ~k:env.k ())
    ~init:(fun env ->
      Cogcast.machine ?trace:env.Protocol.trace ~source:env.source
        ~availability:env.availability ~rng:env.rng ())
    ~summarize:(fun env (r : Cogcast.result) ->
      count_report env ~completed_at:r.Cogcast.completed_at
        ~key:"informed_count" r.Cogcast.informed_count)

(* The two COGCOMP entries are one [Cogcomp.run], disarmed and with
   recovery armed under an adversary. Both report coverage as the values
   that reached the source; each keeps its own detail keys. *)
let cogcomp_entry ~name ~synopsis ~recover detail =
  Protocol.of_run ~name ~capabilities:multi_phase ~synopsis (fun env ->
      let n, _ = dims env in
      let assignment = Dynamic.at env.availability 0 in
      let r =
        Cogcomp.run ?jammer:env.jammer ?faults:env.faults ~recover
          ~backend:env.backend ?budget_factor:env.budget_factor ?trace:env.trace
          ~monoid:Aggregate.sum ~values:(id_values n) ~source:env.source
          ~assignment ~k:env.k ~rng:env.rng ()
      in
      {
        Protocol.protocol = name;
        slots_run = r.Cogcomp.total_slots;
        completed = r.Cogcomp.complete;
        completed_at =
          (if r.Cogcomp.complete then Some r.Cogcomp.total_slots else None);
        coverage = frac r.Cogcomp.coverage n;
        raw_rounds = r.Cogcomp.raw_rounds;
        failed_sessions = r.Cogcomp.failed_sessions;
        counters = r.Cogcomp.counters;
        detail = Json.Obj (detail r);
      })

let cogcomp =
  cogcomp_entry ~name:"cogcomp" ~recover:false
    ~synopsis:"Four-phase data aggregation in O((c/k) max{1,c/n} lg n + n) slots (S5, Thm 10)"
    (fun r ->
      [
        ( "root_value",
          if r.Cogcomp.complete then Json.Int r.Cogcomp.root_value else Json.Null );
        ("phase1_slots", Json.Int r.Cogcomp.phase1_slots);
        ("phase2_slots", Json.Int r.Cogcomp.phase2_slots);
        ("phase3_slots", Json.Int r.Cogcomp.phase3_slots);
        ("phase4_slots", Json.Int r.Cogcomp.phase4_slots);
        ("mediators", Json.Int (List.length r.Cogcomp.mediators));
      ])

let cogcomp_robust =
  cogcomp_entry ~name:"cogcomp_robust" ~recover:true
    ~synopsis:"Fault-tolerant COGCOMP: watchdogs, mediator re-election, acked drain"
    (fun r ->
      [
        ("root_value", Json.Int r.Cogcomp.root_value);
        ("lost", Json.Int (List.length r.Cogcomp.lost));
        ("reelections", Json.Int r.Cogcomp.reelections);
        ("retries", Json.Int r.Cogcomp.retries);
        ("phase1_slots", Json.Int r.Cogcomp.phase1_slots);
        ("phase4_slots", Json.Int r.Cogcomp.phase4_slots);
      ])

(* ---- the rendezvous baselines: state machines behind the one machine
   driver ---- *)

let broadcast_budget env =
  let n, c = dims env in
  scaled_budget env (Complexity.rendezvous_broadcast ~n ~c ~k:env.Protocol.k)

let broadcast_baseline =
  let module B = Crn_rendezvous.Broadcast_baseline in
  Protocol.of_machine ~name:"broadcast_baseline" ~capabilities:single_run
    ~synopsis:"Straw-man broadcast: rendezvous against a transmitting source (S1)"
    (* Per-node RNG streams, own-index writes, atomic informed counter. *)
    ~shardable:true ~budget:broadcast_budget
    ~init:(fun env ->
      B.machine ~source:env.Protocol.source ~availability:env.availability
        ~rng:env.rng)
    ~summarize:(fun env (r : B.result) ->
      count_report env ~completed_at:r.B.completed_at ~key:"informed_count"
        r.B.informed_count)

let aggregation_baseline ~name ~synopsis ~ack =
  let module A = Crn_rendezvous.Aggregation_baseline in
  Protocol.of_machine ~name ~synopsis ~capabilities:single_run
    (* Only the source's feedback mutates the shared accumulator, and each
       non-source node writes its own indices: single-writer, shard-safe. *)
    ~shardable:true
    ~budget:(fun env ->
      let n, c = dims env in
      scaled_budget env
        (Complexity.rendezvous_aggregation ~n ~c ~k:env.Protocol.k))
    ~init:(fun env ->
      let n, _ = dims env in
      A.machine ~ack ~monoid:Aggregate.sum ~values:(id_values n)
        ~source:env.Protocol.source ~availability:env.availability ~rng:env.rng
        ())
    ~summarize:(fun env (r : int A.result) ->
      let n, _ = dims env in
      {
        Protocol.completed_at = r.A.completed_at;
        coverage = frac r.A.received_count n;
        detail =
          Json.Obj
            [
              ("received_count", Json.Int r.A.received_count);
              ( "root_value",
                match r.A.root_value with Some v -> Json.Int v | None -> Json.Null );
            ];
      })

let random_hop =
  let module R = Crn_rendezvous.Random_hop in
  Protocol.of_machine ~name:"random_hop" ~capabilities:single_run
    ~synopsis:"Uniform random hopping: the source beacons until it has met every node (S1)"
    (* Decide-time draws come from one shared stream whose consumption
       order is node order — not shardable without changing the law. *)
    ~shardable:false ~budget:broadcast_budget
    ~init:(fun env ->
      R.machine ~source:env.Protocol.source ~availability:env.availability
        ~rng:env.rng)
    ~summarize:(fun env (r : R.result) ->
      count_report env ~completed_at:r.R.completed_at ~key:"met_count"
        r.R.met_count)

let spectrum_size (env : Protocol.env) =
  Assignment.num_channels (Dynamic.at env.availability 0)

let seq_scan =
  let module S = Crn_rendezvous.Seq_scan in
  Protocol.of_machine ~name:"seq_scan" ~capabilities:static_schedule
    ~synopsis:"Hop-together sequential scan over the global spectrum, O(C/k) (S6)"
    (* Deterministic schedule; own-index writes, atomic informed counter. *)
    ~shardable:true
    (* E10's budget: 8 x C (the spectrum size), i.e. budget_factor x C. *)
    ~budget:(fun env -> scaled_budget env (float_of_int (spectrum_size env)))
    ~init:(fun env ->
      S.machine ~source:env.Protocol.source
        ~assignment:(Dynamic.at env.availability 0))
    ~summarize:(fun env (r : S.result) ->
      count_report env ~completed_at:r.S.completed_at ~key:"informed_count"
        r.S.informed_count)

let deterministic =
  let module D = Crn_rendezvous.Deterministic in
  Protocol.of_machine ~name:"deterministic" ~capabilities:static_schedule
    ~synopsis:"Jump-stay deterministic hopping schedule driving an epidemic broadcast (S3)"
    (* Deterministic schedule; own-index writes, atomic informed counter. *)
    ~shardable:true
    (* Pair rendezvous under jump-stay needs O(P) slots within a round of 3P
       (P the smallest prime >= C); the epidemic chain multiplies by the
       spread depth, bounded by lg n in expectation. *)
    ~budget:(fun env ->
      let n, _ = dims env in
      let p = D.smallest_prime_geq (spectrum_size env) in
      scaled_budget env (float_of_int (3 * p) *. Complexity.lg (float_of_int n)))
    ~init:(fun env ->
      D.machine ~make_schedule:D.jump_stay ~source:env.Protocol.source
        ~assignment:(Dynamic.at env.availability 0))
    ~summarize:(fun env (r : D.broadcast_result) ->
      count_report env ~completed_at:r.D.completed_at ~key:"informed_count"
        r.D.informed_count)

(* ---- the sustained-traffic workloads: open-loop arrivals feeding
   machines from lib/workload ---- *)

module Workload = struct
  module Arrivals = Crn_workload.Arrivals

  (* Per-protocol offered load when the environment leaves [env.load]
     unset: a small batch at a modest rate, sized so the registry-wide
     suites (default dims, fault schedules) terminate quickly. *)
  let resolve (env : Protocol.env) ~default = Option.value env.load ~default

  (* The arrival schedule is drawn from a stream split off [env.rng]
     before anything else touches it, so offered load is a function of the
     seed alone — identical across backends, [--jobs] and [--shards]. *)
  let arrivals (env : Protocol.env) ~default =
    let { Protocol.rate; arrivals; rumors } = resolve env ~default in
    let law =
      match arrivals with
      | Protocol.Poisson -> Arrivals.Poisson
      | Protocol.Uniform -> Arrivals.Uniform
    in
    let n, _ = dims env in
    Arrivals.generate ~rng:(Crn_prng.Rng.split env.rng) ~law ~rate ~n ~rumors

  (* Arrival span with 4x slack (Poisson tails), since budgets must not
     consume randomness. *)
  let span_bound { Protocol.rate; rumors; _ } =
    4 * max 1 (int_of_float (Float.ceil (float_of_int rumors /. rate)))

  let percentile_json latencies p =
    if Array.length latencies = 0 then Json.Null
    else Json.Float (Crn_stats.Summary.percentile latencies p)

  let latency_fields latencies =
    [
      ("latency_p50", percentile_json latencies 50.0);
      ("latency_p95", percentile_json latencies 95.0);
      ("latency_p99", percentile_json latencies 99.0);
      ( "latencies",
        Json.List (Array.to_list (Array.map (fun l -> Json.Float l) latencies)) );
    ]
end

let gossip =
  let module G = Crn_workload.Gossip in
  let default_load = { Protocol.rate = 0.2; arrivals = Protocol.Poisson; rumors = 4 } in
  Protocol.of_machine ~name:"gossip" ~capabilities:with_load
    ~synopsis:"Multi-rumor epidemic broadcast under open-loop rumor arrivals"
    (* Shared non-atomic rumor ledgers mutated from feedback. *)
    ~shardable:false
    ~budget:(fun env ->
      let n, c = dims env in
      let load = Workload.resolve env ~default:default_load in
      let per =
        Complexity.cogcast_slots ?factor:env.Protocol.budget_factor ~n ~c
          ~k:env.k ()
      in
      Workload.span_bound load + (load.Protocol.rumors * per))
    ~init:(fun env ->
      let arrivals = Workload.arrivals env ~default:default_load in
      G.machine ?trace:env.Protocol.trace ~arrivals
        ~availability:env.availability ~rng:env.rng ())
    ~summarize:(fun _env (r : G.result) ->
      let throughput =
        if r.G.slots_run > 0 then frac r.G.completed r.G.slots_run else 0.0
      in
      {
        Protocol.completed_at = r.G.completed_at;
        coverage =
          (if r.G.total_rumors = 0 then 1.0
           else frac r.G.completed r.G.total_rumors);
        detail =
          Json.Obj
            ([
               ("total_rumors", Json.Int r.G.total_rumors);
               ("injected", Json.Int r.G.injected);
               ("completed_rumors", Json.Int r.G.completed);
               ("deliveries", Json.Int r.G.deliveries);
               ("retired", Json.Int r.G.retired);
               ("throughput", Json.Float throughput);
             ]
            @ Workload.latency_fields r.G.latencies);
      })

let push_sum =
  let module P = Crn_workload.Push_sum in
  let default_load = { Protocol.rate = 0.1; arrivals = Protocol.Poisson; rumors = 2 } in
  Protocol.of_machine ~name:"push_sum" ~capabilities:with_load
    ~synopsis:"Streaming push-sum aggregation with exact mass accounting under load"
    (* Shared non-atomic mass/convergence accounting mutated from feedback. *)
    ~shardable:false
    ~budget:(fun env ->
      let n, _ = dims env in
      let load = Workload.resolve env ~default:default_load in
      Workload.span_bound load + scaled_budget env (float_of_int (n * 40)))
    ~init:(fun env ->
      let arrivals = Workload.arrivals env ~default:default_load in
      P.machine ?trace:env.Protocol.trace ~arrivals
        ~availability:env.availability ~rng:env.rng ())
    ~summarize:(fun env (r : P.result) ->
      let n, _ = dims env in
      let throughput =
        if r.P.slots_run > 0 then frac r.P.transfers r.P.slots_run else 0.0
      in
      {
        Protocol.completed_at = r.P.completed_at;
        coverage = frac r.P.converged n;
        detail =
          Json.Obj
            ([
               ("arrivals", Json.Int r.P.total_arrivals);
               ("injected", Json.Int r.P.injected);
               ("transfers", Json.Int r.P.transfers);
               ("transfer_rate", Json.Float throughput);
               ("lost_mass", Json.Float r.P.lost_mass);
               ("max_drift", Json.Float r.P.max_drift);
               ("estimate_error", Json.Float r.P.estimate_error);
               ("converged", Json.Int r.P.converged);
             ]
            @ Workload.latency_fields r.P.latencies);
      })

let baselines_and_workloads =
  [
    broadcast_baseline;
    aggregation_baseline ~name:"aggregation_baseline" ~ack:true
      ~synopsis:"Straw-man aggregation with free ACKs: fair-contention lower bound (S1)";
    aggregation_baseline ~name:"aggregation_baseline_honest" ~ack:false
      ~synopsis:"Straw-man aggregation, no ACKs: source coupon-collects all values (S1)";
    random_hop;
    seq_scan;
    deterministic;
    gossip;
    push_sum;
  ]

let machines = cogcast :: baselines_and_workloads
let all = cogcast :: cogcomp :: cogcomp_robust :: baselines_and_workloads

let names () = List.map Protocol.name all
let machine_names () = List.map Protocol.name machines

let normalize s =
  String.map (fun ch -> if ch = '-' then '_' else ch) (String.lowercase_ascii s)

let direct s = List.find_opt (fun p -> Protocol.name p = s) all

(* [Some inner] when [s] is [jam_resist:<inner>]. *)
let unprefixed s =
  let pl = String.length Jam_resist.prefix in
  if String.length s > pl && String.sub s 0 pl = Jam_resist.prefix then
    Some (String.sub s pl (String.length s - pl))
  else None

(* [jam_resist:<name>] resolves to the Theorem 18 wrap of <name> — every
   entry has its jamming-resistant variant without being registered
   twice. The inner name must be a direct entry, so a (meaningless)
   double prefix fails the lookup. *)
let find s =
  let s = normalize s in
  match unprefixed s with
  | Some inner -> Option.map Jam_resist.wrap (direct inner)
  | None -> direct s

let wrapped p = Option.bind (unprefixed (Protocol.name p)) direct

let find_exn s =
  match find s with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "unknown protocol %S (try: %s, or jam_resist:<name>)" s
           (String.concat ", " (names ())))
