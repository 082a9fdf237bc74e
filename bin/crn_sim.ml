(* crn_sim: command-line front end for the cognitive radio network simulator.

   Subcommands:
     protocols  — list every protocol in the registry and what it supports
     run        — run any registered protocol by name, uniformly (COGCAST is
                  `run -p cogcast`, COGCOMP `run -p cogcomp`, fault-tolerant
                  COGCOMP `run -p cogcomp_robust`; the sustained-traffic
                  workloads take an offered load with --rate, --arrivals
                  and --rumors and report pooled latency percentiles;
                  --sweep n|c|k=V,V,... runs one point per value and fits
                  the completion scaling)
     game       — play the §6 hitting games against the closed-form bounds
     backoff    — measure the decay-backoff realization of the slot model
     chaos      — sweep registry protocols across fault rates

   `run` and `chaos` dispatch through Crn_proto.Registry, so any newly
   registered protocol is immediately drivable with --faults, --trace,
   --metrics, --check, --backend and --jobs without touching this file;
   what an entry supports comes from its declared Protocol.capabilities.
   A shard count lives only in the backend (--backend soa --shards N).

   Every run is reproducible from --seed: trials execute on a domain pool
   sized by --jobs, with one RNG stream split off per trial up front, so
   the numbers are identical at any --jobs value. *)

open Cmdliner
module Rng = Crn_prng.Rng
module Pool = Crn_exec.Pool
module Trials = Crn_exec.Trials
module Topology = Crn_channel.Topology
module Summary = Crn_stats.Summary
module Json = Crn_stats.Json
module Faults = Crn_radio.Faults
module Jammer = Crn_radio.Jammer
module Trace = Crn_radio.Trace
module Runner = Crn_radio.Runner
module Emulation = Crn_radio.Emulation
module Complexity = Crn_core.Complexity
module Protocol = Crn_proto.Protocol
module Registry = Crn_proto.Registry
module Adversary_lab = Crn_proto.Adversary_lab
module Run = Crn_proto.Run

(* ---- shared arguments ---- *)

(* Counts that must be at least one (trials, nodes, shards, ...): cmdliner
   rejects anything else before the command runs, naming the flag. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Command bodies report user errors as [`Error]; [let*] threads the
   [Error msg] of a validation step into that. *)
let ( let* ) r f = match r with Ok v -> f v | Error m -> `Error (false, m)

(* [f] over a list, left to right, stopping at the first error. *)
let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> Result.bind (f x) (fun y -> go (y :: acc) rest)
  in
  go [] l

(* A comma-separated list parsed item by item; the first bad item is the
   error, and so is a list with no items. *)
let parse_list ~flag parse l =
  match
    String.split_on_char ',' l |> List.map String.trim |> List.filter (fun s -> s <> "")
  with
  | [] -> Error (Printf.sprintf "%s needs at least one value" flag)
  | items -> map_result parse items

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let trials_arg =
  Arg.(value & opt pos_int 9 & info [ "trials" ] ~docv:"T" ~doc:"Independent trials.")

let jobs_arg =
  Arg.(
    value
    & opt pos_int (Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains running trials in parallel. Results are identical at any \
           value, including 1 (the seed determines every trial's stream, \
           not the schedule).")

let n_arg =
  Arg.(value & opt pos_int 64 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let c_arg =
  Arg.(value & opt int 16 & info [ "c"; "channels" ] ~docv:"C" ~doc:"Channels per node.")

let k_arg =
  Arg.(
    value & opt int 4
    & info [ "k"; "overlap" ] ~docv:"K" ~doc:"Guaranteed pairwise channel overlap.")

let topology_conv =
  let parse s =
    match
      List.find_opt (fun kd -> Topology.kind_name kd = s) Topology.all_kinds
    with
    | Some kd -> Ok kd
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown topology %S (try: %s)" s
               (String.concat ", " (List.map Topology.kind_name Topology.all_kinds))))
  in
  Arg.conv (parse, fun fmt kd -> Format.pp_print_string fmt (Topology.kind_name kd))

let topology_arg =
  Arg.(
    value
    & opt topology_conv Topology.Shared_plus_random
    & info [ "topology" ] ~docv:"KIND"
        ~doc:
          "Overlap pattern: shared-core, identical, shared+random, \
           pairwise-private or clustered.")

(* ---- dynamic-spectrum adversaries (--dynamic, §7) ---- *)

let dynamic_conv =
  let parse s =
    match Adversary_lab.mode_of_string s with
    | Ok m -> Ok m
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun fmt m -> Format.pp_print_string fmt (Adversary_lab.mode_name m))

let dynamic_arg =
  Arg.(
    value
    & opt dynamic_conv Adversary_lab.Static
    & info [ "dynamic" ] ~docv:"MODE"
        ~doc:
          "Per-slot channel reassignment policy (§7): $(b,static) (the \
           classic model, default), $(b,rotating) (labels drift cyclically \
           every slot, channel sets unchanged), $(b,reshuffle) (a fresh \
           assignment drawn from the topology every slot, overlap >= k \
           maintained), $(b,isolate) (the Theorem 17 conspiracy: a \
           leaked-seed oracle keeps the source's predicted channel private, \
           stalling COGCAST forever).")

(* ---- fault schedule mini-language (--faults / --fault-seed) ---- *)

let fault_spec_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Run.parse_faults s) in
  Arg.conv (parse, fun fmt f -> Format.pp_print_string fmt (Run.faults_text f))

let faults_arg =
  Arg.(
    value
    & opt (some fault_spec_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault schedule: '+'-separated atoms of $(b,none), \
           $(b,crash:NODE:SLOT), $(b,restart:NODE:SLOT:DUR), $(b,naps:RATE), \
           $(b,churn:MEAN_UP:MEAN_DOWN) and $(b,spare:NODE) (e.g. \
           \"naps:0.05+spare:0\"). Randomized atoms draw from --fault-seed. \
           A faulted source usually makes broadcast trivially incomplete — \
           spare it unless that is the point.")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed for the randomized fault atoms (naps, churn), independent of \
           --seed so the same schedule can be replayed against different \
           protocol randomness.")

(* ---- observability (--trace / --metrics / --check) ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record one instrumented run's slot-level event trace and write it \
           as JSON Lines (one event object per line) to $(docv).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Derive the metrics registry (counters and histograms) from one \
           instrumented run's trace and write it as JSON to $(docv).")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Replay one instrumented run's trace through the invariant \
           checkers (one winner per channel per slot, informer precedes \
           informee, phase-4 conservation). Exits nonzero on violation.")

(* ---- execution backend (--backend / --session-cap) ---- *)

let backend_usage = "expected engine | emulation | emulation-csma | reference | soa"

let backend_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "engine" -> Ok `Engine
    | "emulation" | "emulation-decay" -> Ok (`Emulation Emulation.Decay)
    | "emulation-csma" | "csma" -> Ok (`Emulation Emulation.Csma)
    | "reference" -> Ok `Reference
    | "soa" -> Ok `Soa
    | _ -> Error (`Msg (Printf.sprintf "unknown backend %S (%s)" s backend_usage))
  in
  let print fmt choice =
    Format.pp_print_string fmt
      (match choice with
      | `Engine -> "engine"
      | `Emulation Emulation.Decay -> "emulation"
      | `Emulation Emulation.Csma -> "emulation-csma"
      | `Reference -> "reference"
      | `Soa -> "soa")
  in
  Arg.conv (parse, print)

let backend_arg =
  Arg.(
    value
    & opt backend_conv `Engine
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Execution backend: $(b,engine) (the abstract one-winner engine, \
           default; the $(b,soa) backend at one shard), $(b,emulation) \
           (every slot realized on the raw collision radio by \
           decay-backoff contention sessions, §2 footnote 4), \
           $(b,emulation-csma) (same raw radio, CSMA/CA \
           carrier-sense + ACK/retry contention), $(b,reference) (the \
           list-based executable specification, for differential checks), \
           or $(b,soa) (the struct-of-arrays engine: flat node state, \
           $(b,--shards) domains per trial, byte-identical results to \
           $(b,engine) at any shard count).")

let shards_arg =
  Arg.(
    value & opt pos_int 1
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Intra-trial shards on the struct-of-arrays engine \
           ($(b,--backend soa)): each slot's per-node work splits across \
           $(docv) domains. Composes with $(b,--jobs) (trial-level \
           parallelism); total domains is roughly jobs x shards, so shard \
           only when trials alone cannot fill the machine. Results are \
           identical at any value. Rejected when the selected backend \
           cannot shard a trial.")

let dense_channel_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "dense-channel-limit" ] ~docv:"C"
        ~doc:
          "SoA-backend occupancy strategy crossover: spectra up to $(docv) \
           channels use dense per-shard counting arrays, larger spectra \
           fall back to a sparse O(n)-scan merge (the c >> n regime). 0 \
           forces the sparse path; default 4096. Only meaningful with \
           $(b,--backend soa).")

let session_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "session-cap" ] ~docv:"ROUNDS"
        ~doc:
          "Raw-round cap per contention session on the emulation backends \
           (default: the decay budget 4(⌈lg n⌉+1)²). A session that \
           exhausts the cap fails: its broadcasters see No_winner and the \
           slot delivers nothing.")

(* The backend is the one place a shard count lives: only the soa backend
   can split a trial, so --shards > 1 with any other fails here, before
   any trial starts. *)
let build_backend ?dense_channel_limit ~shards choice session_cap =
  let backend =
    match (choice, session_cap, dense_channel_limit) with
    | _, Some v, _ when v < 1 -> Error "--session-cap must be at least 1"
    | _, _, Some v when v < 0 ->
        Error "--dense-channel-limit must be >= 0 (0 forces the sparse scan)"
    | (`Engine | `Emulation _ | `Reference), _, Some _ ->
        Error
          "--dense-channel-limit only applies to the struct-of-arrays backend \
           (--backend soa)"
    | `Emulation strategy, _, _ -> Ok (Runner.Emulation { strategy; session_cap })
    | (`Engine | `Reference | `Soa), Some _, _ ->
        Error
          "--session-cap only applies to the emulation backends (--backend \
           emulation | emulation-csma)"
    | `Engine, None, _ -> Ok Runner.Engine
    | `Reference, None, _ -> Ok Runner.Reference
    | `Soa, None, _ -> Ok (Runner.Soa { shards; dense_channel_limit })
  in
  match backend with
  | Ok ((Runner.Engine | Runner.Emulation _ | Runner.Reference) as b)
    when shards > 1 ->
      Error
        (Printf.sprintf
           "--shards: shards %d requested but the %s backend cannot shard a \
            trial; use the soa backend"
           shards (Runner.backend_name b))
  | _ -> backend

let find_protocol name =
  match Registry.find_exn name with
  | p -> Ok p
  | exception Invalid_argument m -> Error m

(* When any of --trace/--metrics/--check was requested, perform one extra
   instrumented run via [f ~trace] (the statistics trials above stay
   untraced, so their wall-clock is unaffected) and export/verify its
   event stream. *)
let observe ~trace_path ~metrics_path ~check f =
  if trace_path = None && metrics_path = None && not check then Ok ()
  else begin
    let tr = Crn_radio.Trace.create () in
    f ~trace:tr;
    (match trace_path with
    | Some path ->
        Crn_radio.Trace.write_jsonl ~path tr;
        Printf.printf "  wrote trace: %s (%d events)\n" path
          (Crn_radio.Trace.length tr)
    | None -> ());
    (match metrics_path with
    | Some path ->
        let reg = Crn_radio.Metrics.Registry.create () in
        Crn_radio.Metrics.Registry.observe_trace reg tr;
        Crn_stats.Json.write ~path (Crn_radio.Metrics.Registry.to_json reg);
        Printf.printf "  wrote metrics: %s\n" path
    | None -> ());
    if not check then Ok ()
    else begin
      match Crn_radio.Trace.Check.all tr with
      | [] ->
          Printf.printf "  trace invariants: ok (%d events)\n"
            (Crn_radio.Trace.length tr);
          Ok ()
      | violations ->
          List.iter
            (fun v ->
              Format.eprintf "  violation: %a@." Crn_radio.Trace.Check.pp_violation v)
            violations;
          Error
            (Printf.sprintf "--check found %d trace invariant violation(s)"
               (List.length violations))
    end
  end

(* ---- protocols / run: the registry-driven front end ---- *)

let protocols_cmd =
  let run () =
    List.iter
      (fun p -> Printf.printf "%-28s %s\n" (Protocol.name p) (Protocol.synopsis p))
      Registry.all;
    let yes_no b = if b then "yes" else "no" in
    let table =
      Crn_stats.Table.create [ "protocol"; "dynamic"; "max_slots"; "metrics"; "load" ]
    in
    List.iter
      (fun p ->
        let c = Protocol.capabilities p in
        Crn_stats.Table.add_row table
          [
            Protocol.name p;
            yes_no c.Protocol.dynamic;
            yes_no c.Protocol.max_slots;
            yes_no c.Protocol.metrics;
            yes_no c.Protocol.load;
          ])
      Registry.all;
    Crn_stats.Table.add_row table
      [ "jam_resist:<name>"; "no"; "as <name>"; "as <name>"; "as <name>" ];
    Crn_stats.Table.print
      ~title:"Capabilities (no: the run is rejected with an error naming the protocol)"
      table;
    Printf.printf
      "\nEvery entry runs on every backend (engine, soa with --shards, \
       reference,\nemulation, emulation-csma). Every entry also resolves as \
       jam_resist:<name>:\nthe Theorem 18 transform running the protocol \
       unmodified on the jammer's\nsensed spectrum. Under a jam budget > 0 \
       that spectrum changes every slot, so\nthe transform needs an entry \
       with dynamic = yes; at budget 0 it is the\nplain entry.\n"
  in
  Cmd.v
    (Cmd.info "protocols"
       ~doc:"List every protocol in the registry and what each one supports.")
    Term.(const run $ const ())

(* An offered load is set only when a load flag is given; the flags left
   unset take their defaults. *)
let build_load rate arrivals rumors =
  match (rate, arrivals, rumors) with
  | None, None, None -> Ok None
  | Some r, _, _ when not (r > 0.0) -> Error "--rate must be > 0"
  | _ ->
      Ok
        (Some
           {
             Protocol.rate = Option.value rate ~default:0.2;
             arrivals = Option.value arrivals ~default:Protocol.Poisson;
             rumors = Option.value rumors ~default:16;
           })

(* [spec] with the swept parameter set to [v]. *)
let sweep_point param v (spec : Topology.spec) =
  match param with
  | "n" -> { spec with n = v }
  | "c" -> { spec with c = v }
  | _ -> { spec with k = v }

(* One point's report: its parameters, adversaries and load, then what its
   trials measured. *)
let print_report (p : Run.spec) (r : Run.result) =
  let { Topology.n; c; k } = p.Run.params in
  Printf.printf "%s  n=%d c=%d k=%d topology=%s trials=%d\n"
    (Protocol.name p.Run.protocol) n c k
    (Topology.kind_name p.Run.topology) p.Run.trials;
  Printf.printf "  %s\n" (Protocol.synopsis p.Run.protocol);
  (if p.Run.backend <> Runner.Engine then
     Printf.printf "  backend: %s%s\n" (Runner.backend_name p.Run.backend)
       (match p.Run.backend with
       | Runner.Emulation { session_cap = Some cap; _ } ->
           Printf.sprintf " (session cap %d)" cap
       | Runner.Soa { shards; _ } ->
           Printf.sprintf " (%d shard%s)" shards (if shards = 1 then "" else "s")
       | _ -> ""));
  (if p.Run.dynamic <> Adversary_lab.Static then
     Printf.printf "  dynamic: %s reassignment per slot\n"
       (Adversary_lab.mode_name p.Run.dynamic));
  (match Run.jammer p with
  | Some j ->
      Printf.printf "  jammer: %s (budget %d, seed %d)\n" (Jammer.name j)
        (Jammer.budget j) p.Run.fault_seed
  | None -> ());
  (match Run.faults p with
  | Some f ->
      Printf.printf "  faults: %s (seed %d)\n" (Faults.to_string f) p.Run.fault_seed
  | None -> ());
  (match p.Run.load with
  | Some l ->
      Printf.printf "  offered: rate=%g rumors/slot (%s), batch=%d rumors\n"
        l.Protocol.rate (Run.arrivals_name l.Protocol.arrivals) l.Protocol.rumors
  | None -> ());
  Printf.printf "  completion slots: %s\n" (Summary.to_string r.Run.completion);
  Printf.printf "  complete: %d/%d; mean coverage: %.3f\n" r.Run.completed p.Run.trials
    r.Run.mean_coverage;
  (match Run.detail_means r.Run.summaries with
  | [] -> ()
  | fields -> Printf.printf "  detail (mean over trials): %s\n" (String.concat " " fields));
  (match r.Run.latencies with
  | Some [||] -> Printf.printf "  pooled latency slots: no samples\n"
  | Some l ->
      let pct = Summary.percentile l in
      Printf.printf "  pooled latency slots: p50=%.0f p95=%.0f p99=%.0f (%d samples)\n"
        (pct 50.0) (pct 95.0) (pct 99.0) (Array.length l)
  | None -> ());
  match p.Run.backend with
  | Runner.Emulation _ ->
      let raw = Array.map (fun s -> float_of_int s.Protocol.raw_rounds) r.Run.summaries in
      let failed =
        Array.fold_left (fun acc s -> acc + s.Protocol.failed_sessions) 0 r.Run.summaries
      in
      Printf.printf "  raw rounds: %s; failed sessions: %d\n"
        (Summary.to_string (Summary.of_floats raw)) failed
  | _ -> ()

let run_cmd =
  let run name n c k topology dynamic jam_budget seed trials jobs shards
      backend_choice session_cap dense_channel_limit faults fault_seed
      rate arrivals rumors trace_path metrics_path check json_path sweep =
    let* () =
      match (sweep, trace_path, metrics_path) with
      | Some (_, []), _, _ -> Error "--sweep needs at least one value"
      | Some _, Some _, _ | Some _, _, Some _ ->
          Error "--trace and --metrics record one run; neither combines with --sweep"
      | _ -> Ok ()
    in
    let* proto = find_protocol name in
    let* load = build_load rate arrivals rumors in
    let* backend =
      build_backend ?dense_channel_limit ~shards backend_choice session_cap
    in
    (* A plain run is one point; --sweep makes one per value. Every point is
       validated before any trial runs. *)
    let points =
      let base = { Topology.n; c; k } in
      List.map
        (Run.spec ~topology ~dynamic ~backend ?faults ~jam_budget ~fault_seed ?load
           ~trials ~seed proto)
        (match sweep with
        | None -> [ base ]
        | Some (param, values) -> List.map (fun v -> sweep_point param v base) values)
    in
    let* _ =
      map_result
        (fun (p : Run.spec) ->
          let { Topology.n; c; k } = p.Run.params in
          Result.map_error
            (fun m ->
              if sweep = None then m
              else Printf.sprintf "--sweep point n=%d c=%d k=%d: %s" n c k m)
            (Run.validate p))
        points
    in
    let write_json doc =
      match json_path with
      | Some path ->
          Json.write ~path doc;
          Printf.printf "  wrote %s\n" path
      | None -> ()
    in
    try
      Pool.with_pool ~jobs (fun pool ->
          (* Each point: its report, a plain run's JSON, then its
             instrumented run (--check). *)
          let* results =
            map_result
              (fun p ->
                let r = Run.point ~pool p in
                print_report p r;
                if sweep = None then write_json r.Run.json;
                Result.map
                  (fun () -> r)
                  (observe ~trace_path ~metrics_path ~check (Run.instrumented p)))
              points
          in
          (match sweep with
          | None -> ()
          | Some (param, values) ->
              let table = Crn_stats.Table.create [ param; "median slots"; "p90 slots" ] in
              List.iter2
                (fun v r ->
                  Crn_stats.Table.add_rowf table "%d|%.1f|%.1f" v
                    r.Run.completion.Summary.median r.Run.completion.Summary.p90)
                values results;
              Crn_stats.Table.print
                ~title:
                  (Printf.sprintf "%s sweep over %s (topology %s)" (Protocol.name proto)
                     param (Topology.kind_name topology))
                table;
              (* A single point, or one with a zero median, has no slope. *)
              (try
                 let fit =
                   Crn_stats.Fit.log_log
                     (Array.of_list
                        (List.map2
                           (fun v r -> (float_of_int v, r.Run.completion.Summary.median))
                           values results))
                 in
                 Printf.printf "  log-log slope vs %s: %.2f (r2=%.3f)\n" param
                   fit.Crn_stats.Fit.slope fit.Crn_stats.Fit.r2
               with Invalid_argument _ -> ());
              write_json (Json.List (List.map (fun r -> r.Run.json) results)));
          `Ok ())
    with Invalid_argument msg -> `Error (false, msg)
  in
  let protocol_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "protocol" ] ~docv:"NAME"
          ~doc:
            "Protocol to run; any name listed by $(b,crn_sim protocols) \
             (case-insensitive, '-' and '_' interchangeable), or \
             $(b,jam_resist:NAME) for its Theorem 18 jamming-resistant \
             transform.")
  in
  let jam_budget_arg =
    Arg.(
      value & opt int 0
      & info [ "jam-budget" ] ~docv:"T"
          ~doc:
            "Arm an n-uniform jammer that disrupts $(docv) channels per \
             node per slot (seeded from $(b,--fault-seed)). Plain \
             protocols suffer it raw; $(b,jam_resist:NAME) applies the \
             Theorem 18 transform, which requires 2T strictly below the \
             spectrum size. 0 disables.")
  in
  let load_doc =
    " Any of $(b,--rate), $(b,--arrivals) and $(b,--rumors) sets an \
     offered load (the others take their defaults); only the entries \
     $(b,crn_sim protocols) lists as reading a load accept one."
  in
  let rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"R"
          ~doc:
            ("Offered load: rumor arrivals per slot, network-wide (default \
              0.2)." ^ load_doc))
  in
  let arrivals_arg =
    Arg.(
      value
      & opt (some (enum Run.arrivals_laws)) None
      & info [ "arrivals" ] ~docv:"LAW"
          ~doc:
            ("Inter-arrival law of the offered load: $(b,poisson) (default) \
              or $(b,uniform)." ^ load_doc))
  in
  let rumors_arg =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "rumors" ] ~docv:"K"
          ~doc:
            ("Rumors in the offered load's batch (default 16); the run drains \
              until all complete or the budget runs out." ^ load_doc))
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the run as JSON (schema crn-run/1): its parameters, the \
             offered load (or null), completion rate, mean coverage, pooled \
             latency percentiles when the trials report latencies, and every \
             trial's full summary. With $(b,--sweep), a JSON list holding \
             that object for each point.")
  in
  let sweep_arg =
    let param = Arg.enum [ ("n", "n"); ("c", "c"); ("k", "k") ] in
    Arg.(
      value
      & opt (some (pair ~sep:'=' param (list int))) None
      & info [ "sweep" ] ~docv:"PARAM=V,V,..."
          ~doc:
            "Run once per value of PARAM ($(b,n), $(b,c) or $(b,k)) in place \
             of that parameter's flag, then print one row per point (median \
             and p90 completion slots) and the log-log slope of the median. \
             Every point is validated before any trial runs. $(b,--check) \
             checks every point; $(b,--trace) and $(b,--metrics) are \
             rejected.")
  in
  let term =
    Term.(
      ret
        (const run $ protocol_arg $ n_arg $ c_arg $ k_arg $ topology_arg
       $ dynamic_arg $ jam_budget_arg $ seed_arg $ trials_arg $ jobs_arg
       $ shards_arg $ backend_arg $ session_cap_arg $ dense_channel_limit_arg
       $ faults_arg $ fault_seed_arg $ rate_arg $ arrivals_arg $ rumors_arg
       $ trace_arg $ metrics_arg $ check_arg $ json_arg $ sweep_arg))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run any registered protocol by name with the uniform trial, fault, \
          load and observability machinery.")
    term

(* ---- game ---- *)

let game_cmd =
  let run c k seed trials jobs complete =
    if k < 1 || k > c then `Error (false, "need 1 <= k <= c")
    else begin
      let game ~rng ~player ~max_rounds =
        if complete then Crn_games.Hitting_game.play_complete ~rng ~c ~player ~max_rounds
        else Crn_games.Hitting_game.play_bipartite ~rng ~c ~k ~player ~max_rounds
      in
      let max_rounds = c * c * 200 in
      Pool.with_pool ~jobs (fun pool ->
          (* One game per trial, one stream per game; losses count as
             max_rounds (the Hitting_game.median_rounds convention). *)
          let median offset make_player =
            let samples =
              Trials.run ~pool ~trials ~seed:(seed + offset) (fun rng ->
                  let player = make_player (Rng.split rng) in
                  let r = game ~rng ~player ~max_rounds in
                  if r.Crn_games.Hitting_game.won then
                    float_of_int r.Crn_games.Hitting_game.rounds
                  else float_of_int max_rounds)
            in
            Summary.median samples
          in
          Printf.printf "%s hitting game  c=%d%s trials=%d\n"
            (if complete then "c-complete" else "(c,k)-bipartite")
            c
            (if complete then "" else Printf.sprintf " k=%d" k)
            trials;
          Printf.printf "  uniform player median rounds:             %.1f\n"
            (median 0 (fun rng -> Crn_games.Players.uniform rng ~c));
          Printf.printf "  without-replacement player median rounds: %.1f\n"
            (median 1 (fun rng -> Crn_games.Players.without_replacement rng ~c));
          Printf.printf "  lower bound (%s): %.1f\n"
            (if complete then "Lemma 14: c/3" else "Lemma 11: c^2/(8k)")
            (if complete then Complexity.complete_game_lower_bound ~c
             else Complexity.bipartite_game_lower_bound ~c ~k ());
          `Ok ())
    end
  in
  let complete_arg =
    Arg.(value & flag & info [ "complete" ] ~doc:"Play the c-complete variant.")
  in
  let term =
    Term.(
      ret (const run $ c_arg $ k_arg $ seed_arg $ trials_arg $ jobs_arg $ complete_arg))
  in
  Cmd.v (Cmd.info "game" ~doc:"Play the §6 bipartite hitting games.") term

(* ---- backoff ---- *)

let backoff_cmd =
  let run contenders seed trials jobs =
    let sessions =
      Trials.run_jobs ~jobs ~trials ~seed (fun rng ->
          match Crn_radio.Backoff.session ~rng ~contenders ~cap:1_000_000 with
          | Some { Crn_radio.Backoff.rounds; _ } -> Some rounds
          | None -> None)
    in
    let samples =
      Array.map (function Some r -> float_of_int r | None -> 0.0) sessions
    in
    let failures =
      Array.fold_left (fun acc s -> if s = None then acc + 1 else acc) 0 sessions
    in
    Printf.printf "decay backoff  m=%d contenders, trials=%d\n" contenders trials;
    Printf.printf "  raw rounds per one-winner slot: %s\n"
      (Summary.to_string (Summary.of_floats samples));
    Printf.printf "  O(log^2 m) budget: %d; failures: %d\n"
      (Crn_radio.Backoff.expected_rounds_bound contenders)
      failures
  in
  let contenders_arg =
    Arg.(value & opt pos_int 64 & info [ "m"; "contenders" ] ~docv:"M" ~doc:"Contenders in the session.")
  in
  let term = Term.(const run $ contenders_arg $ seed_arg $ trials_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "backoff" ~doc:"Measure the decay-backoff contention layer (footnote 4).")
    term

(* ---- chaos ---- *)

(* Degradation campaign: sweep {protocol} x {fault rate} for one fault kind,
   run the trials on the domain pool with a trace per trial, replay every
   trace through the invariant checkers, and emit the degradation curve
   (completion rate, coverage, slot inflation vs fault rate) as JSON.
   Protocols are resolved through the registry, so any registered protocol —
   the baselines included — can be put on the same curve. *)

let chaos_cmd =
  let run n c k topology dynamic seed fault_seed trials jobs shards
      backend_choice session_cap dense_channel_limit kind protocols rates
      json_path check =
    let* protos = parse_list ~flag:"--protocols" find_protocol protocols in
    let* rates =
      parse_list ~flag:"--rates"
        (fun s ->
          match float_of_string_opt s with
          | Some r when r >= 0.0 && r < 1.0 -> Ok r
          | _ -> Error (Printf.sprintf "rate %S must be a float in [0, 1)" s))
        rates
    in
    let spec = { Topology.n; c; k } in
    let* () = Run.check_params spec in
    let* kind = Adversary_lab.fault_kind_of_string kind in
    let* backend =
      build_backend ?dense_channel_limit ~shards backend_choice session_cap
    in
    let kind_name = Adversary_lab.fault_kind_name kind in
    let* () = Run.check_dynamic ~mode:dynamic ~spec protos in
    (* Selftest hook: with CRN_CHAOS_INJECT_VIOLATION set, every trial
       reports one fake violation, so the --check exit-code path can be
       tested end to end (healthy runs have nothing to fail on). *)
    let checker =
      if Sys.getenv_opt "CRN_CHAOS_INJECT_VIOLATION" = None then None
      else
        Some
          (fun _ ->
            [
              {
                Trace.Check.invariant = "selftest";
                detail = "injected by CRN_CHAOS_INJECT_VIOLATION";
              };
            ])
    in
    let run_trial proto ~rate rng =
      (* Each trial gets its own fault stream, derived from the trial's
         RNG so --fault-seed shifts all of them at once. *)
      let trial_fault_seed =
        Int64.add (Int64.of_int fault_seed)
          (Int64.mul 0x9E3779B97F4A7C15L (Rng.bits64 rng))
      in
      let faults, jammer =
        Adversary_lab.adversary_for ~kind ~rate ~n
          ~fault_seed:trial_fault_seed
      in
      let t =
        Adversary_lab.run_trial ?checker proto (fun ~trace ->
            (match jammer with
            | Some j ->
                Trace.record trace
                  (Trace.Adversary
                     { name = Jammer.name j; budget = Jammer.budget j })
            | None -> ());
            let availability, rng =
              Run.armed_availability ~mode:dynamic ~topology ~spec ~trace ~rng
                ()
            in
            Protocol.env ?faults ?jammer ~trace ~backend ~k ~availability
              ~rng ())
      in
      let s = t.Adversary_lab.summary in
      ( s.Protocol.completed,
        s.Protocol.coverage,
        s.Protocol.slots_run,
        List.length t.Adversary_lab.violations,
        t.Adversary_lab.trace_jsonl )
    in
    (* A run the library rejects (e.g. the Theorem 18 wrap of a
       static-only entry under a jammer) is a user error, not a crash. *)
    try Pool.with_pool ~jobs (fun pool ->
        let failures = ref [] in
        let proto_objs =
          List.map
            (fun proto ->
              let baseline_slots = ref None in
              let points =
                List.map
                  (fun rate ->
                    let cell =
                      Trials.run ~pool ~trials
                        ~seed:(seed + int_of_float (rate *. 1_000_000.))
                        (run_trial proto ~rate)
                    in
                    let mean f =
                      Array.fold_left (fun acc x -> acc +. f x) 0.0 cell
                      /. float_of_int (Array.length cell)
                    in
                    let completion =
                      mean (fun (c, _, _, _, _) -> if c then 1.0 else 0.0)
                    in
                    let coverage = mean (fun (_, cov, _, _, _) -> cov) in
                    let slots =
                      mean (fun (_, _, s, _, _) -> float_of_int s)
                    in
                    if rate = 0.0 && !baseline_slots = None then
                      baseline_slots := Some slots;
                    let inflation =
                      match !baseline_slots with
                      | Some b when b > 0.0 -> slots /. b
                      | _ -> Float.nan
                    in
                    let violations =
                      Array.fold_left
                        (fun acc (_, _, _, v, _) -> acc + v)
                        0 cell
                    in
                    (* Any violation is a simulator bug, not
                       degradation: adversaries may slow a protocol
                       down, but a trace that breaks the invariants
                       means the machinery lied. Every trial is held
                       to the same standard. *)
                    Array.iteri
                      (fun i (_, _, _, v, dump) ->
                        match dump with
                        | Some jsonl ->
                            let path =
                              Printf.sprintf
                                "trace_failure_%s_%s_rate%g_trial%d.jsonl"
                                kind_name
                                (Protocol.name proto) rate i
                            in
                            let oc = open_out path in
                            output_string oc jsonl;
                            close_out oc;
                            failures :=
                              Printf.sprintf
                                "%s %s rate=%g trial=%d: %d violation(s), \
                                 trace in %s"
                                kind_name (Protocol.name proto) rate i v
                                path
                              :: !failures
                        | None -> ())
                      cell;
                    Printf.printf
                      "  %-15s rate=%-5g completion=%.2f coverage=%.2f \
                       slots=%.0f inflation=%.2f violations=%d\n%!"
                      (Protocol.name proto) rate completion coverage slots
                      inflation violations;
                    Json.Obj
                      [
                        ("rate", Json.Float rate);
                        ("completion_rate", Json.Float completion);
                        ("mean_coverage", Json.Float coverage);
                        ("mean_total_slots", Json.Float slots);
                        ("slot_inflation", Json.Float inflation);
                        ("violations", Json.Int violations);
                      ])
                  rates
              in
              Json.Obj
                [
                  ("protocol", Json.String (Protocol.name proto));
                  ("points", Json.List points);
                ])
            protos
        in
        Printf.printf
          "chaos  n=%d c=%d k=%d topology=%s kind=%s dynamic=%s \
           backend=%s trials=%d/point\n"
          n c k
          (Topology.kind_name topology) kind_name
          (Adversary_lab.mode_name dynamic) (Runner.backend_name backend) trials;
        let doc =
          Json.Obj
            [
              ("schema", Json.String "crn-chaos/1");
              ("n", Json.Int n);
              ("c", Json.Int c);
              ("k", Json.Int k);
              ("topology", Json.String (Topology.kind_name topology));
              ("fault_kind", Json.String kind_name);
              ("dynamic", Json.String (Adversary_lab.mode_name dynamic));
              ("backend", Json.String (Runner.backend_name backend));
              ("trials", Json.Int trials);
              ("seed", Json.Int seed);
              ("fault_seed", Json.Int fault_seed);
              ("protocols", Json.List proto_objs);
            ]
        in
        (match json_path with
        | Some path ->
            Json.write ~path doc;
            Printf.printf "  wrote %s\n" path
        | None -> ());
        match !failures with
        | [] -> `Ok ()
        | fs when check ->
            List.iter (Format.eprintf "  violation: %s@.") fs;
            `Error
              ( false,
                Printf.sprintf "chaos --check: %d cell(s) violated invariants"
                  (List.length fs) )
        | fs ->
            List.iter (Format.eprintf "  warning: %s@.") fs;
            `Ok ())
    with Invalid_argument msg -> `Error (false, msg)
  in
  let kind_arg =
    Arg.(
      value & opt string "naps"
      & info [ "fault-kind" ] ~docv:"KIND"
          ~doc:
            "Fault family swept over --rates: $(b,naps) (memoryless per-slot \
             misses), $(b,churn) (up/down Markov chains, rate = stationary \
             down fraction), $(b,crash) (rate = fraction of nodes crashed \
             permanently), $(b,jam) (reactive jammer on the busiest channel; \
             any nonzero rate enables it). The source is always spared.")
  in
  let protocols_arg =
    Arg.(
      value
      & opt string "cogcast,cogcomp,cogcomp-robust"
      & info [ "protocols" ] ~docv:"P,P,..."
          ~doc:
            "Comma-separated registry names (see $(b,crn_sim protocols)); \
             $(b,jam_resist:NAME) puts the Theorem 18 transform on the \
             same curve as its plain protocol.")
  in
  let rates_arg =
    Arg.(
      value
      & opt string "0,0.02,0.05,0.1"
      & info [ "rates" ] ~docv:"R,R,..."
          ~doc:"Comma-separated fault rates in [0, 1); include 0 to anchor \
                the slot-inflation baseline.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the degradation curves as JSON (schema crn-chaos/1).")
  in
  let chaos_check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit nonzero if $(i,any) trial of $(i,any) protocol violates \
             the trace invariants. Adversaries may degrade completion or \
             coverage without tripping the checkers, so put only protocols \
             whose contracts cover the armed fault family on a --check \
             curve (plain cogcomp, for instance, promises exactly-once \
             accounting only fault-free). Violating traces are dumped to \
             trace_failure_*.jsonl either way.")
  in
  let term =
    Term.(
      ret
        (const run $ n_arg $ c_arg $ k_arg $ topology_arg $ dynamic_arg
       $ seed_arg $ fault_seed_arg $ trials_arg $ jobs_arg $ shards_arg
       $ backend_arg $ session_cap_arg $ dense_channel_limit_arg $ kind_arg
       $ protocols_arg $ rates_arg $ json_arg $ chaos_check_arg))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep protocols across fault rates, check per-trial trace \
          invariants, and emit degradation curves.")
    term

let () =
  let info =
    Cmd.info "crn_sim" ~version:"1.0.0"
      ~doc:"Cognitive radio network protocols from Gilbert et al., PODC 2015"
  in
  let group =
    Cmd.group info
      [
        protocols_cmd;
        run_cmd;
        game_cmd;
        backoff_cmd;
        chaos_cmd;
      ]
  in
  exit (Cmd.eval group)
