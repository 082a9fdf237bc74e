(* The repo benchmark: four closed-loop workloads over the slot simulator,
   each run checked for correctness, reporting end-to-end metrics (tracing
   off) or per-layer metrics (a separate traced run, [--trace 1]).

   Every layer is measured from outside, through its public functions:
   spans are taken around calls into the library, never inside it. The
   workload seed fixes every input (topology seeds, loads) before any timer
   starts; one workload run builds its topology, makes a zero-slot run
   through the registry (the set-up: protocol init, per-node RNG split,
   engine arrays, shard-pool spawn) and then the full run.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--nproc N] [--git-rev REV] *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Assignment = Crn_channel.Assignment
module Dynamic = Crn_channel.Dynamic
module Action = Crn_radio.Action
module Engine = Crn_radio.Engine
module Soa = Crn_radio.Soa
module Soa_adapter = Crn_radio.Soa_adapter
module Emulation = Crn_radio.Emulation
module Runner = Crn_radio.Runner
module Trace = Crn_radio.Trace
module Pool = Crn_exec.Pool
module Trials = Crn_exec.Trials
module Json = Crn_stats.Json
module Protocol = Crn_proto.Protocol
module Registry = Crn_proto.Registry
module H = Perfbench_helpers

let now = Unix.gettimeofday

(* Minor-heap words allocated by the calling domain: exact, unlike the
   major-heap tallies, which the runtime folds in at GC slices. *)
let words = Gc.minor_words

(* ---- workloads ---- *)

(* Every topology is the generic one: k shared channels plus c - k drawn
   per node from a spectrum of 4c, so C = 64 and the dense counting path of
   the SoA engine runs. *)
let c = 16
let k = 4

type job = {
  proto : string;  (** Registry name. *)
  n : int;
  backend : Runner.backend;
  shards : int;
  checked : bool;  (** Record an in-memory trace and replay every checker. *)
  load : Protocol.load option;
}

let soa shards = Runner.Soa { shards; dense_channel_limit = None }

let job ?(backend = soa 2) ?(checked = false) proto n =
  let shards = match backend with Runner.Soa { shards; _ } -> shards | _ -> 1 in
  let load =
    match proto with
    | "gossip" -> Some { Protocol.rate = 0.2; arrivals = Protocol.Poisson; rumors = 4 }
    | "push_sum" -> Some { Protocol.rate = 0.1; arrivals = Protocol.Poisson; rumors = 2 }
    | _ -> None
  in
  (* The backend payload carries the shard count, so [env.shards] stays 1. *)
  { proto; n; backend; shards; checked; load }

type workload = {
  name : string;
  batches : (job list * int) list;
      (** One pass: per batch, that many runs (trials) through
          [Crn_exec.Trials]; a run executes the batch's jobs in order, each
          on its own topology. *)
  pool_jobs : int;
      (** 1: runs go one at a time ([Trials.run_seq]); otherwise trials run
          on a [Crn_exec.Pool] of this many domains. *)
}

let engine = Runner.Engine
let decay = Runner.Emulation { strategy = Emulation.Decay; session_cap = None }

let workloads =
  [
    { name = "cogcast_100k"; batches = [ ([ job "cogcast" 100_000 ], 6) ]; pool_jobs = 1 };
    {
      name = "registry_soa";
      batches = [ ([ job "broadcast_baseline" 5000; job "gossip" 5000 ], 6) ];
      pool_jobs = 1;
    };
    {
      name = "trial_sweep";
      (* Three fast entries (~50 ms a trial) outnumber three slow ones
         (~200 ms), so the median trial lies inside the fast band rather
         than on the gap between the bands. *)
      batches =
        List.map
          (fun (j, trials) -> ([ j ], trials))
          [
            (job ~backend:engine "broadcast_baseline" 1024, 12);
            (job ~backend:engine "aggregation_baseline" 1024, 8);
            (job ~backend:engine "gossip" 1024, 12);
            (job ~backend:engine "push_sum" 1024, 8);
            (job ~backend:engine "cogcomp" 1024, 8);
            (job ~backend:decay "cogcomp" 256, 12);
          ];
      pool_jobs = 2;
    };
    {
      name = "checked_trace";
      batches =
        [ ([ job ~checked:true "cogcast" 50_000; job ~checked:true "gossip" 1000 ], 4) ];
      pool_jobs = 1;
    };
  ]

let jobs_of w = List.concat_map fst w.batches

(* ---- output checks ---- *)

let detail_int key (s : Protocol.summary) =
  match Json.member key s.Protocol.detail with Some (Json.Int v) -> Some v | _ -> None

(* The registry's aggregation entries fold the node ids 0 .. n-1. *)
let verify (job : job) (s : Protocol.summary) =
  let fold = Array.fold_left ( + ) 0 (Array.init job.n Fun.id) in
  if not s.Protocol.completed then Some "the protocol did not complete"
  else
    match job.proto with
    | "cogcomp" | "aggregation_baseline" ->
        if detail_int "root_value" s = Some fold then None
        else Some "root_value differs from a direct fold of the inputs"
    | "gossip" -> (
        match (detail_int "completed_rumors" s, detail_int "total_rumors" s) with
        | Some done_, Some total when done_ = total && total > 0 -> None
        | _ -> Some "a gossip rumor did not complete")
    | _ -> None

let counters_key ?(raw = 0) slots (c : Trace.Counters.t) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/raw%d" slots c.Trace.Counters.broadcasts
    c.Trace.Counters.wins c.Trace.Counters.contended c.Trace.Counters.deliveries
    c.Trace.Counters.jammed_actions raw

(* ---- span recording (traced runs) ---- *)

(* One growable record buffer per shard; the wrapper of a range callback
   owns its shard's buffer for the duration of a phase, so no two domains
   write one buffer. Consecutive calls of one (slot, phase) coalesce into a
   record whose [busy] sums them — the per-node calls of the sequential
   paths would otherwise cost a record each. *)
module Rec = struct
  type t = {
    mutable len : int;
    mutable slot : int array;
    mutable phase : int array;
    mutable start : float array;
    mutable stop : float array;
    mutable busy : float array;
    mutable words : float array;
  }

  let decide = 0
  let feedback = 1

  let create () =
    let cap = 256 in
    {
      len = 0;
      slot = Array.make cap 0;
      phase = Array.make cap 0;
      start = Array.make cap 0.0;
      stop = Array.make cap 0.0;
      busy = Array.make cap 0.0;
      words = Array.make cap 0.0;
    }

  let grow t =
    let cap = 2 * Array.length t.slot in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.slot <- extend t.slot 0;
    t.phase <- extend t.phase 0;
    t.start <- extend t.start 0.0;
    t.stop <- extend t.stop 0.0;
    t.busy <- extend t.busy 0.0;
    t.words <- extend t.words 0.0

  let add t ~slot ~phase ~start ~stop ~words =
    let i = t.len - 1 in
    if i >= 0 && t.slot.(i) = slot && t.phase.(i) = phase then begin
      t.stop.(i) <- stop;
      t.busy.(i) <- t.busy.(i) +. (stop -. start);
      t.words.(i) <- t.words.(i) +. words
    end
    else begin
      if t.len = Array.length t.slot then grow t;
      let i = t.len in
      t.slot.(i) <- slot;
      t.phase.(i) <- phase;
      t.start.(i) <- start;
      t.stop.(i) <- stop;
      t.busy.(i) <- stop -. start;
      t.words.(i) <- words;
      t.len <- i + 1
    end

  let fold f acc recs =
    Array.fold_left
      (fun acc t ->
        let acc = ref acc in
        for i = 0 to t.len - 1 do
          acc := f !acc t i
        done;
        !acc)
      acc recs
end

(* Clock first, then the allocation counter, so neither reading's own
   boxing lands inside the measured window. *)
let timed_call recs ~shard ~slot ~phase f =
  let t0 = now () in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let t1 = now () in
  Rec.add recs.(shard) ~slot ~phase ~start:t0 ~stop:t1 ~words:(w1 -. w0)

let shard_of ~n ~shards lo =
  let s = ref (min (shards - 1) (lo * shards / max 1 n)) in
  while !s > 0 && !s * n / shards > lo do decr s done;
  while !s < shards - 1 && (!s + 1) * n / shards <= lo do incr s done;
  !s

let wrap_soa recs ~n ~shards (p : Soa.protocol) =
  let wrap phase f t ~slot ~lo ~hi =
    timed_call recs ~shard:(shard_of ~n ~shards lo) ~slot ~phase (fun () ->
        f t ~slot ~lo ~hi)
  in
  { p with Soa.decide = wrap Rec.decide p.Soa.decide; feedback = wrap Rec.feedback p.Soa.feedback }

let wrap_engine recs (nodes : 'm Engine.node array) =
  Array.map
    (fun (nd : 'm Engine.node) ->
      (* Preallocated, so the timed window allocates only what decide does. *)
      let last = ref (Action.listen ~label:0) in
      Engine.node ~id:nd.Engine.id
        ~decide:(fun ~slot ->
          timed_call recs ~shard:0 ~slot ~phase:Rec.decide (fun () ->
              last := nd.Engine.decide ~slot);
          !last)
        ~feedback:(fun ~slot fb ->
          timed_call recs ~shard:0 ~slot ~phase:Rec.feedback (fun () ->
              nd.Engine.feedback ~slot fb)))
    nodes

(* Slot ticks: an availability built with [Dynamic.of_fun] around the
   static assignment; every engine queries it once at the start of each
   slot, and [of_fun] memoizes, so [f slot] runs exactly once per slot. *)
type ticks = { mutable times : float array; mutable count : int }

let ticked assignment =
  let ticks = { times = Array.make 64 0.0; count = 0 } in
  let availability =
    Dynamic.of_fun ~num_nodes:(Assignment.num_nodes assignment)
      ~channels_per_node:(Assignment.channels_per_node assignment) (fun slot ->
        if slot >= Array.length ticks.times then begin
          let b = Array.make (2 * (slot + 1)) 0.0 in
          Array.blit ticks.times 0 b 0 ticks.count;
          ticks.times <- b
        end;
        ticks.times.(slot) <- now ();
        ticks.count <- max ticks.count (slot + 1);
        assignment)
  in
  (availability, ticks)

(* What a traced run of one engine loop leaves behind. *)
type layer = {
  engine : [ `Soa | `Engine ];
  own : bool;  (** The workload's own run, not a stand-in or a probe. *)
  ticks : ticks;
  run_stop : float;
  recs : Rec.t array option;  (** Decide/feedback records, when wrapped. *)
  node_slots : int;
}

(* Per-slot self time and the slot durations of one traced loop. *)
let slot_spans l =
  Array.init l.ticks.count (fun s ->
      let start = l.ticks.times.(s) in
      let stop = if s + 1 < l.ticks.count then l.ticks.times.(s + 1) else l.run_stop in
      (start, stop))

let self_per_slot l =
  match l.recs with
  | None -> None
  | Some recs ->
      let by_slot = Array.make l.ticks.count [] in
      Rec.fold
        (fun () t i ->
          let s = t.Rec.slot.(i) in
          if s < l.ticks.count then
            by_slot.(s) <-
              { H.start = t.Rec.start.(i); stop = t.Rec.stop.(i); busy = t.Rec.busy.(i) }
              :: by_slot.(s))
        () recs;
      Some
        (Array.mapi
           (fun s (start, stop) -> H.self_time ~start ~stop by_slot.(s))
           (slot_spans l))

let rec_sum recs ~phase field =
  Rec.fold
    (fun acc t i -> if t.Rec.phase.(i) = phase then acc +. (field t).(i) else acc)
    0.0 recs

(* ---- registry machines rebuilt from their exported builders ---- *)

type machine =
  | M : {
      decide : node:int -> slot:int -> 'm Action.decision;
      feedback : node:int -> slot:int -> 'm Action.feedback -> unit;
      finished : unit -> bool;
      parallel : bool;  (** The registry entry's [shardable]. *)
    }
      -> machine

(* Each builder consumes [rng] exactly as the registry entry's [init]
   does, so the rebuilt run draws the same streams as the registry run. *)
let builder (job : job) =
  let arrivals ~rng =
    match job.load with
    | Some { Protocol.rate; rumors; _ } ->
        Crn_workload.Arrivals.generate ~rng:(Rng.split rng)
          ~law:Crn_workload.Arrivals.Poisson ~rate ~n:job.n ~rumors
    | None -> invalid_arg "builder: a workload protocol needs a load"
  in
  match job.proto with
  | "broadcast_baseline" ->
      Some
        (fun ?trace:_ ~availability ~rng () ->
          let module B = Crn_rendezvous.Broadcast_baseline in
          let m = B.machine ~source:0 ~availability ~rng in
          M { decide = m.B.decide; feedback = m.B.feedback; finished = m.B.finished; parallel = true })
  | "aggregation_baseline" ->
      Some
        (fun ?trace:_ ~availability ~rng () ->
          let module A = Crn_rendezvous.Aggregation_baseline in
          let m =
            A.machine ~ack:true ~monoid:Crn_core.Aggregate.sum
              ~values:(Array.init job.n Fun.id) ~source:0 ~availability ~rng ()
          in
          M { decide = m.A.decide; feedback = m.A.feedback; finished = m.A.finished; parallel = true })
  | "gossip" ->
      Some
        (fun ?trace ~availability ~rng () ->
          let module G = Crn_workload.Gossip in
          let arrivals = arrivals ~rng in
          let m = G.machine ?trace ~arrivals ~availability ~rng () in
          M { decide = m.G.decide; feedback = m.G.feedback; finished = m.G.finished; parallel = false })
  | "push_sum" ->
      Some
        (fun ?trace ~availability ~rng () ->
          let module P = Crn_workload.Push_sum in
          let arrivals = arrivals ~rng in
          let m = P.machine ?trace ~arrivals ~availability ~rng () in
          M { decide = m.P.decide; feedback = m.P.feedback; finished = m.P.finished; parallel = false })
  | _ -> None

(* Drive a rebuilt machine exactly as the registry's machine driver does
   (trace preamble, zero slots if already finished, stop on finished), but
   with the decide/feedback callbacks timed. *)
let run_machine (job : job) (M m) ~assignment ~availability ~rng ?trace ~max_slots () =
  let n = job.n in
  (match trace with
  | Some tr ->
      Trace.record tr
        (Trace.Meta { n; channels = Assignment.num_channels assignment; c; source = 0 });
      Trace.record tr (Trace.Phase { name = job.proto })
  | None -> ());
  let nodes =
    Array.init n (fun v ->
        Engine.node ~id:v
          ~decide:(fun ~slot -> m.decide ~node:v ~slot)
          ~feedback:(fun ~slot fb -> m.feedback ~node:v ~slot fb))
  in
  let max_slots = if m.finished () then 0 else max_slots in
  let stop ~slot:_ = m.finished () in
  let recs = Array.init job.shards (fun _ -> Rec.create ()) in
  let outcome =
    match job.backend with
    | Runner.Soa { shards; _ } ->
        let protocol =
          wrap_soa recs ~n ~shards (Soa_adapter.protocol ~parallel:m.parallel nodes)
        in
        Soa.run ~shards ?trace ~stop ~availability ~rng ~protocol ~max_slots ()
    | Runner.Engine ->
        Engine.run ?trace ~stop ~availability ~rng ~nodes:(wrap_engine recs nodes)
          ~max_slots ()
    | b -> invalid_arg ("run_machine: backend " ^ Runner.backend_name b)
  in
  (outcome, recs, m.finished ())

(* ---- one job ---- *)

type outcome = {
  topo_s : float;
  init_s : float;  (** Zero-slot run; [0.] for cogcomp, which has no slot budget to zero. *)
  full_s : float;
  slot_s : float;
      (** From the first slot's tick to the end of the run; the full run
          minus the zero-slot run where no clean tick exists (cogcomp, and
          traced registry runs, whose preamble queries slot 0 early). *)
  check_s : float;
  n : int;
  slots : int;
  raw_rounds : int;
  events : int;
  key : string;  (** Slots and engine counters: what the repeat guard compares. *)
  summary : string;  (** The uniform summary JSON, when the registry ran the job. *)
  failure : string option;
  layers : layer list;
  stamps : (string * float * float) list;  (** Spans of this job, for the spans file. *)
}

(* [reference] is the untraced outcome of the same job and seed; when
   given, the run is traced: ticks around every engine loop and, where the
   entry exports a machine builder, timed decide/feedback callbacks. *)
let exec ?reference ~settle (job : job) seed =
  let traced = reference <> None in
  let rng = Rng.create seed in
  settle ();
  let t0 = now () in
  let assignment = Topology.shared_plus_random rng { Topology.n = job.n; c; k } in
  let t1 = now () in
  settle ();
  let t1' = now () in
  let static = Dynamic.static assignment in
  let proto = Registry.find_exn job.proto in
  let env ?max_slots ?trace ?(backend = job.backend) ~availability rng =
    Protocol.env ?max_slots ?trace ?load:job.load ~k ~backend ~availability ~rng ()
  in
  let zero_ok, t2 =
    if job.proto = "cogcomp" then (true, now ())
    else
      let s = Protocol.run proto (env ~max_slots:0 ~availability:static (Rng.copy rng)) in
      (s.Protocol.slots_run = 0, now ())
  in
  let trace = if job.checked then Some (Trace.create ()) else None in
  let built = match reference with Some _ -> builder job | None -> None in
  settle ();
  let t3 = now () in
  let slots, raw_rounds, key, summary, failure, layers, ticks, t4 =
    match (built, reference) with
    | Some build, Some r ->
        let availability, ticks = ticked assignment in
        let machine = build ?trace ~availability ~rng () in
        let o, recs, finished =
          run_machine job machine ~assignment ~availability ~rng ?trace
            ~max_slots:r.slots ()
        in
        let t4 = now () in
        let key = counters_key o.Engine.slots_run o.Engine.counters in
        let failure =
          if key <> r.key || not finished then
            Some "the rebuilt machine diverged from the registry run"
          else None
        in
        let engine = match job.backend with Runner.Soa _ -> `Soa | _ -> `Engine in
        let layer =
          { engine; own = true; ticks; run_stop = t4; recs = Some recs;
            node_slots = job.n * o.Engine.slots_run }
        in
        (o.Engine.slots_run, 0, key, r.summary, failure, [ layer ], Some ticks, t4)
    | _ ->
        let availability, ticks =
          if job.proto = "cogcomp" then (static, { times = [||]; count = 0 })
          else ticked assignment
        in
        let s = Protocol.run proto (env ?trace ~availability rng) in
        let t4 = now () in
        let layers =
          match job.backend with
          | (Runner.Soa _ | Runner.Engine) when traced && job.proto <> "cogcomp" ->
              let engine = match job.backend with Runner.Soa _ -> `Soa | _ -> `Engine in
              [ { engine; own = true; ticks; run_stop = t4; recs = None; node_slots = 0 } ]
          | _ -> []
        in
        let summary = Json.to_string (Protocol.summary_json s) in
        let failure =
          match reference with
          | Some r when r.summary <> summary ->
              Some "the traced run's summary differs from the untraced run's"
          | _ -> None
        in
        ( s.Protocol.slots_run,
          s.Protocol.raw_rounds,
          counters_key ~raw:s.Protocol.raw_rounds s.Protocol.slots_run s.Protocol.counters,
          summary,
          (match failure with Some _ -> failure | None -> verify job s),
          layers,
          (if job.checked then None else Some ticks),
          t4 )
  in
  let violations, t5 =
    match trace with
    | Some tr ->
        let v = Trace.Check.all tr in
        (v, now ())
    | None -> ([], t4)
  in
  let failure =
    match failure with
    | Some _ -> failure
    | None when not zero_ok -> Some "the zero-slot run ran slots"
    | None -> (
        match violations with
        | v :: _ -> Some (Format.asprintf "trace check: %a" Trace.Check.pp_violation v)
        | [] -> None)
  in
  {
    topo_s = t1 -. t0;
    init_s = (if job.proto = "cogcomp" then 0.0 else t2 -. t1');
    full_s = t4 -. t3;
    slot_s =
      (match ticks with
      | Some tk when tk.count > 0 -> t4 -. tk.times.(0)
      | _ -> t4 -. t3 -. (t2 -. t1'));
    check_s = t5 -. t4;
    n = job.n;
    slots;
    raw_rounds;
    events = (match trace with Some tr -> Trace.length tr | None -> 0);
    key;
    summary;
    failure;
    layers;
    stamps =
      [ ("topology", t0, t1); ("init", t1', t2); ("protocol", t3, t4) ]
      @ (if trace <> None then [ ("check", t4, t5) ] else []);
  }

(* ---- a pass: every run of the workload once ---- *)

type run = { seeds : int list; outcomes : outcome list; run_start : float; run_stop : float }

let run_s r = List.fold_left (fun a o -> a +. o.topo_s +. o.full_s +. o.check_s) 0.0 r.outcomes
let setup_s r = List.fold_left (fun a o -> a +. o.topo_s +. o.init_s) 0.0 r.outcomes
let slot_s r = List.fold_left (fun a o -> a +. o.slot_s) 0.0 r.outcomes
let node_slots r = List.fold_left (fun a o -> a + (o.n * o.slots)) 0 r.outcomes
let run_key r = String.concat ";" (List.map (fun o -> o.key) r.outcomes)

type pass = { runs : run array; wall : float; pass_start : float }

(* Each trial draws its jobs' topology seeds from the generator
   [Crn_exec.Trials] pre-splits for it off a seed derived from the workload
   seed, the pass [index] and the batch, so a pass's inputs are fixed
   before it starts and identical at any pool size. Timed passes each get
   fresh inputs (more distinct inputs per run of the benchmark); traced
   passes repeat pass 0 and find their untraced twin runs by seed. *)
let run_pass ?reference ?(index = 0) ?(settle = false) w ~seed =
  let twins =
    Option.map
      (fun (p : pass) ->
        let tbl = Hashtbl.create 64 in
        Array.iter (fun r -> Hashtbl.replace tbl r.seeds r) p.runs;
        tbl)
      reference
  in
  (* With [settle], sequential runs start each timed phase (topology,
     zero-slot run, full run) with no major-GC debt left by the one before,
     so a phase's time does not depend on where the collector's slices
     happened to land. Parallel trials skip it: a full major GC stops every
     domain. Traced passes skip it too, so the GC counts they report are
     the workload's own. *)
  let settle_heap () = if settle && w.pool_jobs = 1 then Gc.full_major () in
  let trial jobs rng =
    let seeds = List.map (fun _ -> Rng.int rng (1 lsl 30)) jobs in
    let twin = Option.map (fun tbl -> Hashtbl.find tbl seeds) twins in
    let start = now () in
    let outcomes =
      List.mapi
        (fun j (jb, s) ->
          exec
            ?reference:(Option.map (fun r -> List.nth r.outcomes j) twin)
            ~settle:settle_heap jb s)
        (List.combine jobs seeds)
    in
    { seeds; outcomes; run_start = start; run_stop = now () }
  in
  let batches pool =
    List.mapi
      (fun b (jobs, trials) ->
        let seed = Hashtbl.hash (seed, index, b) in
        match pool with
        | None -> Trials.run_seq ~trials ~seed (trial jobs)
        | Some pool -> Trials.run ~pool ~trials ~seed (trial jobs))
      w.batches
  in
  if settle then Gc.full_major ();
  let pass_start = now () in
  let runs =
    Array.concat
      (if w.pool_jobs = 1 then batches None
       else Pool.with_pool ~jobs:w.pool_jobs (fun p -> batches (Some p)))
  in
  { runs; wall = now () -. pass_start; pass_start }

(* ---- layer probes ---- *)

let median_of k f = H.median (Array.init k (fun _ -> f ()))

type probe = {
  split_ns : float;
  draw_ns : float;
  words_per_draw : float;
  spawn_s : float;
  barrier_us : float;
  soa_null_ns : float;
  soa_layer : layer;
  engine_null_ns : float;
  engine_null_s : float;
  engine_words : float;
  emu_rounds : int;
  emu_ns : float;
}

let null_soa ~c =
  let decide t ~slot ~lo ~hi =
    for v = lo to hi - 1 do
      if not (Soa.is_down t v) then begin
        let label = ((v * 7) + (slot * 13)) mod c in
        if (v + slot) land 3 = 0 then Soa.set_broadcast t v ~label ~msg:v
        else Soa.set_listen t v ~label
      end
    done
  in
  { Soa.parallel = true; decide; feedback = (fun _ ~slot:_ ~lo:_ ~hi:_ -> ()) }

let null_nodes ~n ~c =
  let sched =
    Array.init n (fun v ->
        Array.init 4 (fun s ->
            let label = ((v * 7) + (s * 13)) mod c in
            if (v + s) land 3 = 0 then Action.broadcast ~label v else Action.listen ~label))
  in
  Array.init n (fun v ->
      Engine.node ~id:v
        ~decide:(fun ~slot -> sched.(v).(slot land 3))
        ~feedback:(fun ~slot:_ _ -> ()))

let slots_for n = max 4 (min 256 (4_000_000 / max 1 n))

(* Probes of every layer at the workload's size, so each per-layer metric
   is measured on every workload: where the workload's own runs bypass a
   layer, that layer's figure is its probe's. *)
let probes ~n ~shards ~seed =
  let split_ns =
    median_of 3 (fun () ->
        let r = Rng.create seed in
        let t = now () in
        ignore (Sys.opaque_identity (Rng.split_n r n));
        (now () -. t) *. 1e9 /. float_of_int n)
  in
  let draws = 1_000_000 in
  let draw () =
    let r = Rng.create seed in
    let t = now () in
    let w0 = Gc.minor_words () in
    for _ = 1 to draws do
      ignore (Sys.opaque_identity (Rng.int r c))
    done;
    let w1 = Gc.minor_words () in
    ((now () -. t) *. 1e9 /. float_of_int draws, (w1 -. w0) /. float_of_int draws)
  in
  let d = Array.init 3 (fun _ -> draw ()) in
  let spawn_s =
    median_of 5 (fun () ->
        let t = now () in
        let p = Pool.create ~jobs:2 in
        let s = now () -. t in
        Pool.shutdown p;
        s)
  in
  let barrier_us =
    Pool.with_pool ~jobs:2 (fun p ->
        let reps = 2000 in
        let t = now () in
        for _ = 1 to reps do
          Pool.parallel_for p ~n:2 (fun _ -> ())
        done;
        (now () -. t) *. 1e6 /. float_of_int reps)
  in
  let assignment = Topology.shared_plus_random (Rng.create seed) { Topology.n; c; k } in
  let slots = slots_for n in
  let availability, ticks = ticked assignment in
  let recs = Array.init shards (fun _ -> Rec.create ()) in
  let protocol = wrap_soa recs ~n ~shards (null_soa ~c) in
  let t = now () in
  ignore
    (Soa.run ~shards ~availability ~rng:(Rng.create seed) ~protocol ~max_slots:slots ());
  let stop = now () in
  let soa_null_ns = (stop -. t) *. 1e9 /. float_of_int (n * slots) in
  let soa_layer =
    { engine = `Soa; own = false; ticks; run_stop = stop; recs = Some recs;
      node_slots = n * slots }
  in
  let ne = min n 65536 in
  let eslots = slots_for ne in
  let sub = Topology.shared_plus_random (Rng.create seed) { Topology.n = ne; c; k } in
  let nodes = null_nodes ~n:ne ~c in
  let w0 = words () in
  let t = now () in
  ignore
    (Engine.run ~availability:(Dynamic.static sub) ~rng:(Rng.create seed) ~nodes
       ~max_slots:eslots ());
  let engine_null_s = now () -. t in
  let engine_words = (words () -. w0) /. float_of_int (ne * eslots) in
  let nm = min n 256 in
  let small = Topology.shared_plus_random (Rng.create seed) { Topology.n = nm; c; k } in
  let t = now () in
  let eo =
    Emulation.run ~availability:(Dynamic.static small) ~rng:(Rng.create seed)
      ~nodes:(null_nodes ~n:nm ~c) ~max_slots:32 ()
  in
  let emu_s = now () -. t in
  {
    split_ns;
    draw_ns = H.median (Array.map fst d);
    words_per_draw = snd d.(0);
    spawn_s;
    barrier_us;
    soa_null_ns;
    soa_layer;
    engine_null_ns = engine_null_s *. 1e9 /. float_of_int (ne * eslots);
    engine_null_s;
    engine_words;
    emu_rounds = eo.Emulation.raw_rounds;
    emu_ns = emu_s *. 1e9 /. float_of_int (max 1 eo.Emulation.raw_rounds);
  }

(* Trace-layer figures of one traced registry run: recording cost against
   an untraced single-domain twin, words per event, checker time. *)
type trace_cost = { events : int; record_s : float; extra_words : float; check_s : float }

let trace_cost (job : job) seed =
  let rng = Rng.create seed in
  let assignment = Topology.shared_plus_random rng { Topology.n = job.n; c; k } in
  let availability = Dynamic.static assignment in
  let proto = Registry.find_exn job.proto in
  let go ?trace backend =
    let r = Rng.copy rng in
    let env = Protocol.env ?trace ?load:job.load ~k ~backend ~availability ~rng:r () in
    let w0 = words () in
    let t = now () in
    let s = Protocol.run proto env in
    (now () -. t, words () -. w0, Json.to_string (Protocol.summary_json s))
  in
  let tr = Trace.create () in
  let traced_s, traced_w, traced_sum = go ~trace:tr job.backend in
  let twin_backend = match job.backend with Runner.Soa _ -> soa 1 | b -> b in
  let twin_s, twin_w, twin_sum = go twin_backend in
  let t = now () in
  let violations = Trace.Check.all tr in
  let check_s = now () -. t in
  ( { events = Trace.length tr; record_s = traced_s -. twin_s;
      extra_words = traced_w -. twin_w; check_s },
    traced_sum = twin_sum && violations = [] )

(* ---- metrics ---- *)

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let all_runs passes = Array.concat (List.map (fun (p : pass) -> p.runs) passes)
let all_outcomes passes = List.concat_map (fun r -> r.outcomes) (Array.to_list (all_runs passes))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* Every run's own output checks. *)
let audit tally passes =
  List.iter
    (fun o ->
      (match o.failure with Some f -> prerr_endline ("check failed: " ^ f) | None -> ());
      H.check tally (o.failure = None))
    (all_outcomes passes)

(* The exact-repeat guard: a run repeated on the same inputs reproduces its
   slot, engine and raw-round counts exactly. *)
let repeat_guard tally (a : run) (b : run) =
  let same = run_key a = run_key b in
  if not same then prerr_endline "repeat guard: counts drifted on repeated inputs";
  H.check tally same

let end_to_end passes =
  let runs = all_runs passes in
  let walls = Array.of_list (List.map (fun (p : pass) -> p.wall) passes) in
  let run_times = Array.map run_s runs in
  let node_slots = Array.fold_left (fun a r -> a + node_slots r) 0 runs in
  let slot_time = Array.fold_left (fun a r -> a +. slot_s r) 0.0 runs in
  ( [
      ("wall_s", H.median walls, "s");
      ("setup_s", H.median (Array.map setup_s runs), "s");
      ("node_slots_per_s", float_of_int node_slots /. slot_time, "1/s");
      ("run_s_p50", H.median run_times, "s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ],
    run_times,
    float_of_int (Array.length runs) /. Array.fold_left ( +. ) 0.0 walls )

(* Small pre-timing probe: every SoA-capable protocol of the workload gives
   the same summary at shards 1 and 2. *)
let shard_parity w ~seed tally =
  let n = 512 in
  let protos =
    List.sort_uniq compare
      (List.filter_map
         (fun j -> if j.proto = "cogcomp" then None else Some j.proto)
         (jobs_of w))
  in
  List.iter
    (fun p ->
      let jb = job p n in
      let summary shards =
        let rng = Rng.create seed in
        let a = Topology.shared_plus_random rng { Topology.n; c; k } in
        Protocol.run (Registry.find_exn p)
          (Protocol.env ?load:jb.load ~k ~backend:(soa shards)
             ~availability:(Dynamic.static a) ~rng ())
        |> Protocol.summary_json |> Json.to_string
      in
      let same = summary 1 = summary 2 in
      if not same then prerr_endline ("shard parity failed: " ^ p);
      H.check tally same)
    protos

(* Repeat passes for [seconds], at least [min_passes], stopping before a
   pass that would overrun. [f] receives the pass index. *)
let measure ~seconds ~min_passes f =
  let start = now () in
  let rec go acc count =
    let acc = f count :: acc in
    let count = count + 1 in
    let elapsed = now () -. start in
    if count >= min_passes && elapsed +. (elapsed /. float_of_int count) > seconds then
      List.rev acc
    else go acc count
  in
  go [] 0

(* ---- per-layer metrics of one traced pass ---- *)

module Spans = struct
  type s = { id : int; parent : int; name : string; start : float; stop : float; busy : float }

  let all = ref []
  let next = ref 0

  let fresh () =
    let id = !next in
    incr next;
    id

  let add ?(id = fresh ()) ?(parent = -1) ?busy name start stop =
    all := { id; parent; name; start; stop; busy = Option.value busy ~default:(stop -. start) } :: !all;
    id

  let write path =
    let spans = List.rev !all in
    let kids = Hashtbl.create 4096 in
    List.iter
      (fun s -> Hashtbl.add kids s.parent { H.start = s.start; stop = s.stop; busy = s.busy })
      spans;
    let oc = open_out path in
    List.iter
      (fun s ->
        let self = s.busy -. H.covered ~start:s.start ~stop:s.stop (Hashtbl.find_all kids s.id) in
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"stop\":%.6f,\"self_s\":%.9f}\n"
          s.id s.parent s.name s.start s.stop self)
      spans;
    close_out oc
end

let record_layer ~parent l =
  let slots = slot_spans l in
  let ids =
    Array.map (fun (start, stop) -> Spans.add ~parent "slot" start stop) slots
  in
  match l.recs with
  | None -> ()
  | Some recs ->
      Rec.fold
        (fun () t i ->
          let s = t.Rec.slot.(i) in
          if s < Array.length ids then
            ignore
              (Spans.add ~parent:ids.(s) ~busy:t.Rec.busy.(i)
                 (if t.Rec.phase.(i) = Rec.decide then "decide" else "feedback")
                 t.Rec.start.(i) t.Rec.stop.(i)))
        () recs

let record_pass ~parent (p : pass) =
  let pid = Spans.add ~parent "pass" p.pass_start (p.pass_start +. p.wall) in
  Array.iter
    (fun r ->
      let rid = Spans.add ~parent:pid "run" r.run_start r.run_stop in
      List.iter
        (fun o ->
          List.iter
            (fun (name, start, stop) ->
              let id = Spans.add ~parent:rid name start stop in
              if name = "protocol" then List.iter (record_layer ~parent:id) o.layers)
            o.stamps)
        r.outcomes)
    p.runs

(* The bb machine stands in for COGCAST, which exports no machine builder:
   same n, shards and topology seed, for the slots COGCAST ran. *)
let stand_in (o : outcome) (jb : job) seed =
  let bb = { jb with proto = "broadcast_baseline" } in
  let rng = Rng.create seed in
  let assignment = Topology.shared_plus_random rng { Topology.n = jb.n; c; k } in
  let availability, ticks = ticked assignment in
  let build = Option.get (builder bb) in
  let machine = build ~availability ~rng () in
  let out, recs, _ =
    run_machine bb machine ~assignment ~availability ~rng ~max_slots:o.slots ()
  in
  { engine = `Soa; own = false; ticks; run_stop = now (); recs = Some recs;
    node_slots = jb.n * out.Engine.slots_run }

type layer_pass = {
  metrics : (string * float * string) list;
  counts : string;  (** Counts the repeat guard compares across passes. *)
}

let layer_metrics (p : pass) (pr : probe) (tc : trace_cost) ~standin =
  let outcomes = all_outcomes [ p ] in
  let layers = List.concat_map (fun o -> o.layers) outcomes @ standin in
  let wrapped = List.filter (fun l -> l.recs <> None) layers in
  let soa_own = List.filter (fun l -> l.engine = `Soa && l.own) layers in
  let soa_timed = List.filter (fun l -> l.engine = `Soa) wrapped in
  let engine_timed = List.filter (fun l -> l.engine = `Engine) wrapped in
  let self ls =
    sum (fun l -> Array.fold_left ( +. ) 0.0 (Option.get (self_per_slot l))) ls
  in
  let recs_sum phase field =
    sum (fun l -> rec_sum (Option.get l.recs) ~phase field) wrapped
  in
  let wrapped_words =
    recs_sum Rec.decide (fun t -> t.Rec.words) +. recs_sum Rec.feedback (fun t -> t.Rec.words)
  in
  let wrapped_node_slots = List.fold_left (fun a l -> a + l.node_slots) 0 wrapped in
  let slot_ms =
    Array.concat
      (List.map
         (fun l -> Array.map (fun (a, b) -> (b -. a) *. 1e3) (slot_spans l))
         (if soa_own <> [] then soa_own else [ pr.soa_layer ]))
  in
  let emu = List.filter (fun o -> o.raw_rounds > 0) outcomes in
  let raw = List.fold_left (fun a o -> a + o.raw_rounds) 0 emu in
  let emu_rounds, emu_ns =
    if emu = [] then (pr.emu_rounds, pr.emu_ns)
    else (raw, sum (fun o -> o.full_s) emu *. 1e9 /. float_of_int raw)
  in
  let words_per_event = tc.extra_words /. float_of_int (max 1 tc.events) in
  {
    metrics =
      [
        ("prng.split_ns_per_node", pr.split_ns, "ns");
        ("prng.draw_ns", pr.draw_ns, "ns");
        ("prng.words_per_draw", pr.words_per_draw, "words");
        ("channel.topology_s", sum (fun o -> o.topo_s) outcomes, "s");
        ("proto.init_s", sum (fun o -> o.init_s) outcomes, "s");
        ("proto.decide_s", recs_sum Rec.decide (fun t -> t.Rec.busy), "s");
        ("proto.feedback_s", recs_sum Rec.feedback (fun t -> t.Rec.busy), "s");
        ("proto.words_per_node_slot", wrapped_words /. float_of_int (max 1 wrapped_node_slots), "words");
        ("soa.slot_ms_p50", H.percentile slot_ms 50.0, "ms");
        ("soa.slot_ms_p90", H.percentile slot_ms 90.0, "ms");
        ("soa.engine_self_s", self (if soa_timed <> [] then soa_timed else [ pr.soa_layer ]), "s");
        ("soa.null_ns_per_node_slot", pr.soa_null_ns, "ns");
        ("engine.self_s", (if engine_timed <> [] then self engine_timed else pr.engine_null_s), "s");
        ("engine.null_ns_per_node_slot", pr.engine_null_ns, "ns");
        ("engine.words_per_node_slot", pr.engine_words, "words");
        ("emulation.raw_rounds", float_of_int emu_rounds, "count");
        ("emulation.ns_per_raw_round", emu_ns, "ns");
        ("trace.events", float_of_int tc.events, "count");
        ("trace.record_s", tc.record_s, "s");
        ("trace.words_per_event", words_per_event, "words");
        ("check.s", tc.check_s, "s");
        ("pool.spawn_s", pr.spawn_s, "s");
        ("pool.barrier_us", pr.barrier_us, "us");
      ];
    counts =
      Printf.sprintf "events=%d raw=%d words/draw=%.17g engine_words=%.17g trace_words=%.17g"
        tc.events emu_rounds pr.words_per_draw pr.engine_words tc.extra_words;
  }

(* ---- host fingerprint ---- *)

let calibration_ns () =
  median_of 5 (fun () ->
      let x = ref 88172645463325252 in
      let iters = 1 lsl 22 in
      let t = now () in
      for _ = 1 to iters do
        let v = !x in
        let v = v lxor (v lsl 13) in
        let v = v lxor (v lsr 7) in
        x := v lxor (v lsl 17)
      done;
      ignore (Sys.opaque_identity !x);
      (now () -. t) *. 1e9 /. float_of_int iters)

let host_line ~nproc ~git_rev =
  Printf.sprintf
    "host {\"nproc\":%s,\"recommended_domain_count\":%d,\"ocaml\":%S,\"git_rev\":%S,\"calibration_ns\":%.6f}"
    nproc (Domain.recommended_domain_count ()) Sys.ocaml_version git_rev
    (calibration_ns ())

(* ---- output ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit tally metrics =
  List.iter
    (fun (name, v, unit) ->
      if not (H.valid_name name && H.valid_unit unit) then
        failwith ("invalid metric name or unit: " ^ name);
      if not (Float.is_finite v) then begin
        prerr_endline ("non-finite metric: " ^ name);
        H.check tally false
      end;
      Printf.printf "%-30s %14.6g %s\n" name v unit)
    metrics;
  Printf.printf "failed_frac %.6g (%d of %d checks)\n" (H.failed_frac tally)
    tally.H.failed tally.H.attempted;
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name
             (json_number (if Float.is_finite v then v else 0.0)) unit)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (tally.H.failed = 0) tally.H.attempted tally.H.failed body

(* ---- main ---- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--nproc N] [--git-rev REV]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get key = match Hashtbl.find_opt args key with Some v -> v | None -> usage () in
  let int_arg key = match int_of_string_opt (get key) with Some v -> v | None -> usage () in
  let name = get "workload" in
  let w =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload " ^ name ^ " (try: "
          ^ String.concat ", " (List.map (fun w -> w.name) workloads)
          ^ ")");
        exit 2
  in
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let nproc = Option.value (Hashtbl.find_opt args "nproc") ~default:"null" in
  let git_rev = Option.value (Hashtbl.find_opt args "git-rev") ~default:"unknown" in
  print_endline (host_line ~nproc ~git_rev);
  let tally = H.tally () in
  shard_parity w ~seed tally;
  (* One untimed run of the workload's first batch grows the heap to its
     working size, so the timed passes do not pay first-touch page faults. *)
  let warm = run_pass { w with batches = [ (fst (List.hd w.batches), 1) ] } ~seed in
  audit tally [ warm ];
  let max_n = List.fold_left (fun a (j : job) -> max a j.n) 0 (jobs_of w) in
  let shards = List.fold_left (fun a (j : job) -> max a j.shards) 1 (jobs_of w) in
  if not traced then begin
    let passes =
      measure ~seconds ~min_passes:3 (fun index -> run_pass ~index ~settle:true w ~seed)
    in
    audit tally passes;
    repeat_guard tally warm.runs.(0) (List.hd passes).runs.(0);
    let metrics, run_times, trials_per_s = end_to_end passes in
    (* Reported beside the JSON only: the tail percentile needs ten runs
       beyond it, which only trial_sweep has, and trials per second is the
       pass's fixed run count over wall_s. *)
    (match H.tail_percentile run_times with
    | Some (p, v) ->
        Printf.printf "run_s_p%g %.6g s (%d runs)\n" p v (Array.length run_times)
    | None ->
        Printf.printf "run_s tail: no percentile has ten of %d runs beyond it\n"
          (Array.length run_times));
    Printf.printf "trials_per_s %.6g 1/s\n" trials_per_s;
    emit tally metrics
  end
  else begin
    (* The untraced pass is the reference the traced passes must reproduce,
       the GC baseline and the wall time tracing overhead is taken from. *)
    let q0 = Gc.quick_stat () in
    let untraced = run_pass w ~seed in
    let q1 = Gc.quick_stat () in
    audit tally [ untraced ];
    repeat_guard tally warm.runs.(0) untraced.runs.(0);
    let u_node_slots = Array.fold_left (fun a r -> a + node_slots r) 0 untraced.runs in
    let busy =
      Array.fold_left (fun a r -> a +. (r.run_stop -. r.run_start)) 0.0 untraced.runs
      /. (float_of_int w.pool_jobs *. untraced.wall)
    in
    let checked = List.filter (fun (j : job) -> j.checked) (jobs_of w) in
    let trace_job =
      if checked <> [] then checked
      else
        let j = List.hd (jobs_of w) in
        [ { (job ~backend:j.backend "cogcast" 16384) with checked = true } ]
    in
    let root = Spans.fresh () and traced_start = now () in
    let layer_passes =
      measure ~seconds ~min_passes:2 (fun _ ->
          let p = run_pass ~reference:untraced w ~seed in
          audit tally [ p ];
          record_pass ~parent:root p;
          let standin =
            if List.exists (fun o -> o.layers <> [] && (List.hd o.layers).recs <> None)
                 (all_outcomes [ p ])
            then []
            else
              let r = p.runs.(0) in
              [ stand_in (List.hd r.outcomes) (List.hd (jobs_of w)) (List.hd r.seeds) ]
          in
          let t = now () in
          let pr = probes ~n:max_n ~shards ~seed in
          ignore (Spans.add ~parent:root "probes" t (now ()));
          let costs =
            List.map
              (fun j ->
                let tc, ok = trace_cost j seed in
                H.check tally ok;
                tc)
              trace_job
          in
          let tc =
            List.fold_left
              (fun a (b : trace_cost) ->
                { events = a.events + b.events; record_s = a.record_s +. b.record_s;
                  extra_words = a.extra_words +. b.extra_words; check_s = a.check_s +. b.check_s })
              { events = 0; record_s = 0.0; extra_words = 0.0; check_s = 0.0 }
              costs
          in
          (p.wall, layer_metrics p pr tc ~standin))
    in
    (* A second untraced pass after the traced ones, so the overhead is not
       skewed by whichever side ran first. *)
    let after = run_pass w ~seed in
    audit tally [ after ];
    repeat_guard tally untraced.runs.(0) after.runs.(0);
    (match layer_passes with
    | (_, first) :: rest ->
        List.iter
          (fun (_, lp) ->
            let same = lp.counts = first.counts in
            if not same then prerr_endline ("repeat guard: counts drifted: " ^ lp.counts);
            H.check tally same)
          rest
    | [] -> ());
    let median_of_metric i =
      H.median (Array.of_list (List.map (fun (_, lp) -> let _, v, _ = List.nth lp.metrics i in v) layer_passes))
    in
    let first = snd (List.hd layer_passes) in
    let metrics =
      List.mapi (fun i (name, _, unit) -> (name, median_of_metric i, unit)) first.metrics
      @ [
          ("trials.busy_frac", busy, "ratio");
          ( "gc.minor_words_per_node_slot",
            (q1.Gc.minor_words -. q0.Gc.minor_words) /. float_of_int (max 1 u_node_slots),
            "words" );
          ("gc.major_collections", float_of_int (q1.Gc.major_collections - q0.Gc.major_collections), "count");
          ( "tracing.overhead_s",
            H.median (Array.of_list (List.map fst layer_passes))
            -. H.median [| untraced.wall; after.wall |],
            "s" );
        ]
    in
    ignore (Spans.add ~id:root "workload" traced_start (now ()));
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench/spans-%s-%d.jsonl" w.name seed in
    Spans.write path;
    Printf.printf "spans: %s (%d spans)\n" path !Spans.next;
    emit tally metrics
  end
