(* Differential tests for the protocol layer (lib/proto): a registry-
   dispatched run must be byte-identical — traces, counters, results — to
   the direct API it wraps, and the random-hop machine must reproduce the
   slot counts of its pure loop. *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Dynamic = Crn_channel.Dynamic
module Assignment = Crn_channel.Assignment
module Trace = Crn_radio.Trace
module Faults = Crn_radio.Faults
module Cogcast = Crn_core.Cogcast
module Cogcomp = Crn_core.Cogcomp
module Aggregate = Crn_core.Aggregate
module Complexity = Crn_core.Complexity
module Random_hop = Crn_rendezvous.Random_hop
module Protocol = Crn_proto.Protocol
module Registry = Crn_proto.Registry
module Trials = Crn_exec.Trials

let seeds = [ 1; 2; 5 ]

let detail_int summary key =
  match summary.Protocol.detail with
  | Crn_stats.Json.Obj fields -> (
      match List.assoc_opt key fields with
      | Some (Crn_stats.Json.Int v) -> v
      | _ -> Alcotest.failf "summary detail lacks int field %S" key)
  | _ -> Alcotest.fail "summary detail is not an object"

let run_registry ?budget_factor ?max_slots ?faults ?trace ~name ~k ~assignment ~rng () =
  Protocol.run (Registry.find_exn name)
    (Protocol.env ?budget_factor ?max_slots ?faults ?trace ~k
       ~availability:(Dynamic.static assignment) ~rng ())

(* ---- registry vs direct API: byte-identical traces and results ---- *)

let test_cogcast_differential () =
  List.iter
    (fun seed ->
      let n = 24 and c = 8 and k = 3 in
      let spec = { Topology.n; c; k } in
      let direct =
        let rng = Rng.create seed in
        let assignment = Topology.generate Topology.Shared_plus_random rng spec in
        let tr = Trace.create () in
        let r = Cogcast.run_static ~trace:tr ~source:0 ~assignment ~k ~rng () in
        (Trace.to_jsonl tr, r.Cogcast.completed_at, r.Cogcast.informed_count,
         r.Cogcast.slots_run)
      in
      let registry =
        let rng = Rng.create seed in
        let assignment = Topology.generate Topology.Shared_plus_random rng spec in
        let tr = Trace.create () in
        let s = run_registry ~trace:tr ~name:"cogcast" ~k ~assignment ~rng () in
        (Trace.to_jsonl tr, s.Protocol.completed_at, detail_int s "informed_count",
         s.Protocol.slots_run)
      in
      let dt, dc, di, ds = direct and rt, rc, ri, rs = registry in
      Alcotest.(check string) (Printf.sprintf "trace seed %d" seed) dt rt;
      Alcotest.(check (option int)) "completed_at" dc rc;
      Alcotest.(check int) "informed_count" di ri;
      Alcotest.(check int) "slots_run" ds rs)
    seeds

let test_cogcomp_differential () =
  List.iter
    (fun seed ->
      let n = 20 and c = 6 and k = 2 in
      let spec = { Topology.n; c; k } in
      let direct =
        let rng = Rng.create seed in
        let assignment = Topology.generate Topology.Shared_core rng spec in
        let tr = Trace.create () in
        let values = Array.init n (fun v -> v) in
        let r =
          Cogcomp.run ~trace:tr ~monoid:Aggregate.sum ~values ~source:0
            ~assignment ~k ~rng ()
        in
        (Trace.to_jsonl tr, r.Cogcomp.complete,
         (if r.Cogcomp.complete then Some r.Cogcomp.root_value else None),
         r.Cogcomp.total_slots)
      in
      let registry =
        let rng = Rng.create seed in
        let assignment = Topology.generate Topology.Shared_core rng spec in
        let tr = Trace.create () in
        let s = run_registry ~trace:tr ~name:"cogcomp" ~k ~assignment ~rng () in
        let root =
          match s.Protocol.detail with
          | Crn_stats.Json.Obj fields -> (
              match List.assoc_opt "root_value" fields with
              | Some (Crn_stats.Json.Int v) -> Some v
              | _ -> None)
          | _ -> None
        in
        (Trace.to_jsonl tr, s.Protocol.completed, root, s.Protocol.slots_run)
      in
      let dt, dc, dv, ds = direct and rt, rc, rv, rs = registry in
      Alcotest.(check string) (Printf.sprintf "trace seed %d" seed) dt rt;
      Alcotest.(check bool) "complete" dc rc;
      Alcotest.(check (option int)) "root_value" dv rv;
      Alcotest.(check int) "total_slots" ds rs)
    seeds

let naps_faults () = Faults.spare (Faults.random_naps ~seed:7L ~rate:0.05) ~node:0

(* The multi-phase entries report what their engine runs measured: slot
   counters summed over all four phases (so [counters.slots_run] equals
   the summary's [slots_run]) and the failed contention sessions of every
   phase, not hard-coded zeros. A one-round session cap on the collision
   radio makes sessions fail. *)
let test_cogcomp_summary_counters () =
  let n = 20 and c = 6 and k = 2 in
  let assignment =
    Topology.generate Topology.Shared_core (Rng.create 3) { Topology.n; c; k }
  in
  let summary ?faults ?(backend = Crn_radio.Runner.Engine) name =
    Protocol.run (Registry.find_exn name)
      (Protocol.env ?faults ~backend ~k
         ~availability:(Dynamic.static assignment)
         ~rng:(Rng.create 4) ())
  in
  let capped =
    Crn_radio.Runner.Emulation
      { strategy = Crn_radio.Emulation.Decay; session_cap = Some 1 }
  in
  List.iter
    (fun (label, s) ->
      let counters = s.Protocol.counters in
      Alcotest.(check int)
        (label ^ ": counters.slots_run = slots_run")
        s.Protocol.slots_run counters.Trace.Counters.slots_run;
      Alcotest.(check bool)
        (label ^ ": broadcasts counted")
        true
        (counters.Trace.Counters.broadcasts > 0))
    [
      ("cogcomp", summary "cogcomp");
      ("cogcomp emulated", summary ~backend:capped "cogcomp");
      ("cogcomp_robust", summary ~faults:(naps_faults ()) "cogcomp_robust");
      ("cogcomp_robust emulated", summary ~backend:capped "cogcomp_robust");
    ];
  List.iter
    (fun name ->
      let emulated = summary ~backend:capped name in
      Alcotest.(check bool)
        (name ^ ": capped sessions fail and are reported")
        true
        (emulated.Protocol.failed_sessions > 0);
      (* Every slot costs at least one raw round. *)
      Alcotest.(check bool)
        (name ^ ": emulated raw rounds are measured")
        true
        (emulated.Protocol.raw_rounds >= emulated.Protocol.slots_run);
      Alcotest.(check int)
        (name ^ ": no raw rounds on the engine")
        0 (summary name).Protocol.raw_rounds)
    [ "cogcomp"; "cogcomp_robust" ]


let test_cogcomp_robust_differential () =
  List.iter
    (fun seed ->
      let n = 16 and c = 6 and k = 2 in
      let spec = { Topology.n; c; k } in
      let direct =
        let rng = Rng.create seed in
        let assignment = Topology.generate Topology.Shared_core rng spec in
        let tr = Trace.create () in
        let values = Array.init n (fun v -> v) in
        let r =
          Cogcomp.run ~recover:true ~faults:(naps_faults ()) ~trace:tr
            ~monoid:Aggregate.sum ~values ~source:0 ~assignment ~k ~rng ()
        in
        (Trace.to_jsonl tr, r.Cogcomp.coverage, r.Cogcomp.total_slots)
      in
      let registry =
        let rng = Rng.create seed in
        let assignment = Topology.generate Topology.Shared_core rng spec in
        let tr = Trace.create () in
        let s =
          run_registry ~faults:(naps_faults ()) ~trace:tr ~name:"cogcomp_robust"
            ~k ~assignment ~rng ()
        in
        let coverage = int_of_float (s.Protocol.coverage *. float_of_int n +. 0.5) in
        (Trace.to_jsonl tr, coverage, s.Protocol.slots_run)
      in
      let dt, dcov, ds = direct and rt, rcov, rs = registry in
      Alcotest.(check string) (Printf.sprintf "trace seed %d" seed) dt rt;
      Alcotest.(check int) "coverage" dcov rcov;
      Alcotest.(check int) "total_slots" ds rs)
    seeds

(* A trial that calls itself complete carries the exact aggregate: 276,
   the sum of the ids 0..23, for both COGCOMP entries under light naps,
   light crashes and the reactive jammer, and every trial's trace passes
   the checkers. A drain that folds a re-sent value twice breaks the
   first. *)
let test_cogcomp_completed_is_exact () =
  let module Run = Crn_proto.Run in
  let params = { Topology.n = 24; c = 8; k = 2 } in
  Crn_exec.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun name ->
          let completed =
            List.fold_left
              (fun completed text ->
                let faults =
                  match Run.parse_faults text with
                  | Ok f -> f
                  | Error m -> Alcotest.fail m
                in
                let r =
                  Run.point ~pool
                    (Run.spec ~faults ~check:true ~trials:60 ~seed:11
                       (Registry.find_exn name) params)
                in
                let label = Printf.sprintf "%s --faults %s" name text in
                Array.iteri
                  (fun i s ->
                    if s.Protocol.completed then
                      Alcotest.(check (option (float 0.0)))
                        (Printf.sprintf "%s trial %d root_value" label i)
                        (Some 276.0)
                        (Run.detail_number "root_value" s))
                  r.Run.summaries;
                (match r.Run.failures with
                | [] -> ()
                | f :: _ ->
                    Alcotest.failf "%s: trial %d: %a" label f.Run.trial
                      Trace.Check.pp_violation (List.hd f.Run.violations));
                completed + r.Run.completed)
              0
              [ "naps:0.01+spare:0"; "naps:0.02+spare:0"; "crash:0.05+spare:0"; "jam" ]
          in
          Alcotest.(check bool) (name ^ ": some trial completed") true (completed > 0))
        [ "cogcomp"; "cogcomp_robust" ])

(* ---- the random-hop machine vs its pure loop ---- *)

let test_random_hop_matches_pure_loop () =
  List.iter
    (fun seed ->
      let n = 16 and c = 6 and k = 2 in
      let spec = { Topology.n; c; k } in
      let max_slots =
        max 1
          (int_of_float (Float.ceil (8.0 *. Complexity.rendezvous_broadcast ~n ~c ~k)))
      in
      let pure =
        let rng = Rng.create seed in
        let assignment = Topology.generate Topology.Shared_core rng spec in
        Random_hop.source_meets_all ~rng ~assignment ~source:0 ~max_slots
      in
      let registry =
        let rng = Rng.create seed in
        let assignment = Topology.generate Topology.Shared_core rng spec in
        let s = run_registry ~name:"random_hop" ~k ~assignment ~rng () in
        s.Protocol.completed_at
      in
      Alcotest.(check (option int))
        (Printf.sprintf "slot count seed %d" seed)
        pure registry)
    seeds

(* ---- every registry entry: faults + trace + check, and byte-identical
   traces at any job count ---- *)

let trial_trace ~name ~with_faults rng =
  let n = 12 and c = 6 and k = 2 in
  let spec = { Topology.n; c; k } in
  let assignment = Topology.generate Topology.Shared_plus_random rng spec in
  let tr = Trace.create () in
  let faults =
    if with_faults then Some (Faults.spare (Faults.random_naps ~seed:11L ~rate:0.03) ~node:0)
    else None
  in
  ignore (run_registry ?faults ~trace:tr ~name ~k ~assignment ~rng ());
  tr

let test_jobs_determinism () =
  List.iter
    (fun name ->
      let run_at jobs =
        Trials.run_jobs ~jobs ~trials:2 ~seed:3 (fun rng ->
            Trace.to_jsonl (trial_trace ~name ~with_faults:true rng))
      in
      let j1 = run_at 1 and j2 = run_at 2 and j8 = run_at 8 in
      Alcotest.(check (array string)) (name ^ ": jobs 1 = jobs 2") j1 j2;
      Alcotest.(check (array string)) (name ^ ": jobs 1 = jobs 8") j1 j8)
    (Registry.names ())

(* The document [crn_sim cmd --json FILE] writes; the command must exit 0. *)
let cli_json cmd =
  let path = Filename.temp_file "crn_run" ".json" in
  let cmd = Printf.sprintf "%s --json %s" cmd (Filename.quote path) in
  let code, _ = Cli.run cmd in
  Alcotest.(check int) cmd 0 code;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Crn_stats.Json.of_string text with
  | Error m -> Alcotest.failf "%s: bad JSON: %s" cmd m
  | Ok doc -> doc

(* The same determinism contract at the front end: a workload run's
   per-trial summaries in its crn-run/1 JSON do not depend on --jobs or on
   the soa backend's shard count. *)
let test_cli_run_json_determinism () =
  let module Json = Crn_stats.Json in
  let per_trial flags =
    let cmd =
      Printf.sprintf "run -p gossip --rate 0.5 --rumors 2 --trials 2 %s" flags
    in
    let doc = cli_json cmd in
    Alcotest.(check (option string))
      (cmd ^ ": schema") (Some "\"crn-run/1\"")
      (Option.map Json.to_string (Json.member "schema" doc));
    (match Json.member "per_trial" doc with
    | Some (Json.List l) -> Alcotest.(check int) (cmd ^ ": trials") 2 (List.length l)
    | _ -> Alcotest.failf "%s: no per_trial list" cmd);
    Json.to_string (Option.get (Json.member "per_trial" doc))
  in
  let base = per_trial "--jobs 1" in
  Alcotest.(check string) "jobs 1 = jobs 2" base (per_trial "--jobs 2");
  Alcotest.(check string) "engine = soa at 2 shards" base
    (per_trial "--jobs 1 --backend soa --shards 2")

(* run --sweep keeps the numbers of the COGCAST-only sweep subcommand it
   replaced: one row per point (median and p90 completion slots) and the
   log-log slope of the medians. *)
let test_cli_sweep_known_answer () =
  let cmd = "run -p cogcast --sweep n=32,64,128 -c 16 -k 4 --trials 9 --seed 1" in
  let code, out = Cli.run cmd in
  Alcotest.(check int) cmd 0 code;
  let lines = String.split_on_char '\n' out in
  let rows =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (fun w -> w <> "") with
        | [ v; median; p90 ] when List.mem v [ "32"; "64"; "128" ] ->
            Some (String.concat " " [ v; median; p90 ])
        | _ -> None)
      lines
  in
  Alcotest.(check (list string))
    "rows"
    [ "32 13.0 15.6"; "64 9.0 12.6"; "128 7.0 9.0" ]
    rows;
  Alcotest.(check bool)
    "slope line" true
    (List.mem "  log-log slope vs n: -0.45 (r2=0.988)" lines)

(* Each element of a --sweep --json list is the crn-run/1 object a plain
   run at that point writes. *)
let test_cli_sweep_json_per_point () =
  let module Json = Crn_stats.Json in
  List.iter
    (fun (flags, param, values) ->
      let swept =
        Printf.sprintf "%s --sweep %s=%s" flags param
          (String.concat "," (List.map string_of_int values))
      in
      match cli_json swept with
      | Json.List docs ->
          Alcotest.(check int) (swept ^ ": points") (List.length values)
            (List.length docs);
          List.iter2
            (fun v doc ->
              let plain = Printf.sprintf "%s -%s %d" flags param v in
              Alcotest.(check string) (swept ^ " = " ^ plain)
                (Json.to_string (cli_json plain))
                (Json.to_string doc))
            values docs
      | _ -> Alcotest.failf "%s: not a JSON list" swept)
    [
      ("run -p cogcast -c 16 -k 4 --trials 3 --jobs 2", "n", [ 32; 64 ]);
      ( "run -p broadcast_baseline -n 24 -k 2 --trials 3 --jobs 1 --backend soa \
         --shards 2",
        "c",
        [ 8; 16 ] );
    ]

(* ---- Run: one point, shared by the CLI and the bench ---- *)

module Run = Crn_proto.Run

let shared_core name ?dynamic ~seed params =
  Run.spec ~topology:Topology.Shared_core ?dynamic ~trials:3 ~seed
    (Registry.find_exn name) params

(* Bench cells at --quick, pinned as known answers: E2 (c = 64), E4
   (c = 8), E7 (n = 32, with the median of the trials' phase4_slots) and
   E11 (n = 256, static and reshuffled). *)
let test_run_point_known_answers () =
  Crn_exec.Pool.with_pool ~jobs:2 (fun pool ->
      let median spec =
        (Run.point ~pool spec).Run.completion.Crn_stats.Summary.median
      in
      let e4 = { Topology.n = 512; c = 8; k = 2 }
      and e7 = { Topology.n = 32; c = 8; k = 2 }
      and e11 = { Topology.n = 256; c = 16; k = 4 } in
      List.iter
        (fun (label, spec, want) -> Alcotest.(check (float 0.0)) label want (median spec))
        [
          ( "E2 c=64",
            shared_core "cogcast" ~seed:2064 { Topology.n = 128; c = 64; k = 4 },
            140.0 );
          ("E4 cogcast c=8", shared_core "cogcast" ~seed:7008 e4, 30.0);
          ("E4 broadcast_baseline c=8", shared_core "broadcast_baseline" ~seed:8008 e4, 181.0);
          ("E7 aggregation_baseline n=32", shared_core "aggregation_baseline" ~seed:9532 e7, 196.0);
          ( "E7 aggregation_baseline_honest n=32",
            shared_core "aggregation_baseline_honest" ~seed:9732 e7,
            372.0 );
          ("E11 static n=256", shared_core "cogcast" ~seed:5256 e11, 30.0);
          ( "E11 reshuffle n=256",
            shared_core "cogcast" ~dynamic:Crn_proto.Adversary_lab.Reshuffle ~seed:6256 e11,
            31.0 );
        ];
      let r = Run.point ~pool (shared_core "cogcomp" ~seed:9032 e7) in
      Alcotest.(check (float 0.0)) "E7 cogcomp n=32" 578.0
        r.Run.completion.Crn_stats.Summary.median;
      Alcotest.(check (float 0.0)) "E7 phase4 n=32" 66.0
        (Crn_stats.Summary.median
           (Array.map
              (fun s -> Option.get (Run.detail_number "phase4_slots" s))
              r.Run.summaries)))

(* Run.point's crn-run/1 object is what `crn_sim run --json` writes for the
   flags Run.args renders. *)
let test_run_point_json_is_cli () =
  let module Json = Crn_stats.Json in
  List.iter
    (fun spec ->
      let cmd = String.concat " " ("run" :: Run.args spec) in
      let lib =
        Crn_exec.Pool.with_pool ~jobs:2 (fun pool -> (Run.point ~pool spec).Run.json)
      in
      let lib =
        match Json.of_string (Json.to_string lib) with
        | Ok doc -> doc
        | Error m -> Alcotest.failf "%s: bad JSON: %s" cmd m
      in
      Alcotest.(check string) cmd (Json.to_string (cli_json cmd)) (Json.to_string lib))
    [
      Run.spec
        ~backend:(Crn_radio.Runner.Soa { shards = 2; dense_channel_limit = None })
        ~trials:3 ~seed:5
        (Registry.find_exn "cogcast")
        { Topology.n = 48; c = 8; k = 2 };
      Run.spec
        ~load:{ Protocol.rate = 0.3; arrivals = Protocol.Uniform; rumors = 3 }
        ~trials:2 ~seed:4
        (Registry.find_exn "gossip")
        { Topology.n = 16; c = 6; k = 2 };
    ]

let test_traces_check_clean () =
  List.iter
    (fun name ->
      let rng = Rng.create 4 in
      let tr = trial_trace ~name ~with_faults:false rng in
      match Trace.Check.all tr with
      | [] -> ()
      | violations ->
          Alcotest.failf "%s: %d trace invariant violation(s), first: %s" name
            (List.length violations)
            (Format.asprintf "%a" Trace.Check.pp_violation (List.hd violations)))
    (Registry.names ())

let test_faulty_run_all_protocols () =
  (* Under faults every protocol must still run to a bounded summary (no
     exception, sane coverage); completion is not required. *)
  List.iter
    (fun name ->
      let rng = Rng.create 9 in
      let n = 12 and c = 6 and k = 2 in
      let spec = { Topology.n; c; k } in
      let assignment = Topology.generate Topology.Shared_plus_random rng spec in
      let faults = Faults.spare (Faults.random_naps ~seed:13L ~rate:0.05) ~node:0 in
      let s = run_registry ~faults ~name ~k ~assignment ~rng () in
      Alcotest.(check bool)
        (name ^ ": coverage in [0,1]")
        true
        (s.Protocol.coverage >= 0.0 && s.Protocol.coverage <= 1.0))
    (Registry.names ())

let test_soa_backend_sweep () =
  (* The registry audit on the soa backend: every entry runs sharded under
     faults and matches its engine summary byte-for-byte. The deeper
     shard/strategy/trace matrix lives in test/test_soa.ml. *)
  let module Runner = Crn_radio.Runner in
  let module Json = Crn_stats.Json in
  let n = 24 and c = 6 and k = 2 in
  let summary name backend =
    let rng = Rng.create 11 in
    let assignment =
      Topology.generate Topology.Shared_plus_random rng { Topology.n; c; k }
    in
    let faults = Faults.random_naps ~seed:17L ~rate:0.05 in
    let s =
      Protocol.run (Registry.find_exn name)
        (Protocol.env ~faults ~backend ~k
           ~availability:(Dynamic.static assignment)
           ~rng:(Rng.create 12) ())
    in
    Json.to_string (Protocol.summary_json s)
  in
  let soa = Runner.Soa { shards = 2; dense_channel_limit = None } in
  List.iter
    (fun name ->
      let engine = summary name Runner.Engine in
      Alcotest.(check string) (name ^ ": soa shards=2 = engine") engine
        (summary name soa))
    (Registry.names ())

(* ---- golden summaries ---- *)

(* Every entry's uniform summary at one seed — on the abstract engine, on
   the decay-emulated raw radio with and without a one-round session cap,
   and cut short by a three-slot budget — plus the Theorem 18 wrap under a
   live jammer, against test/golden_summaries.json. The file pins the summaries
   the protocol layer produced before machine summaries were reduced to
   their protocol-specific part; a refactor of how summaries are assembled
   must leave every byte of them unchanged. *)
let golden_cases () =
  let module Runner = Crn_radio.Runner in
  let module Json = Crn_stats.Json in
  let n = 16 and c = 6 and k = 2 in
  let backends =
    [
      ("engine", Runner.Engine);
      ( "emulation",
        Runner.Emulation
          { strategy = Crn_radio.Emulation.Decay; session_cap = None } );
      (* One raw round per session: most sessions fail, so the summaries
         carry failed-session counts and the COGCOMPs end incomplete. *)
      ( "emulation-cap1",
        Runner.Emulation
          { strategy = Crn_radio.Emulation.Decay; session_cap = Some 1 } );
    ]
  in
  let summary ?jammer ?max_slots name backend =
    let rng = Rng.create 7 in
    let assignment =
      Topology.generate Topology.Shared_plus_random rng { Topology.n; c; k }
    in
    Protocol.run (Registry.find_exn name)
      (Protocol.env ?jammer ?max_slots ~backend ~k
         ~availability:(Dynamic.static assignment) ~rng ())
    |> Protocol.summary_json |> Json.to_string
  in
  (* Three slots end every run early: the incomplete summaries of the
     entries that take a slot budget. *)
  let cut_short =
    List.filter_map
      (fun name ->
        match summary ~max_slots:3 name Runner.Engine with
        | s -> Some (name ^ "/max_slots=3@engine", s)
        | exception Invalid_argument _ -> None)
      (Registry.names ())
  in
  cut_short
  @ List.concat_map
      (fun (bname, backend) ->
        let jammer =
          Crn_radio.Jammer.random_per_node ~seed:5L ~budget:3
            ~num_channels:(4 * c)
        in
        List.map
          (fun name -> (name ^ "@" ^ bname, summary name backend))
          (Registry.names ())
        @ [
            ( "jam_resist:cogcast/t=3@" ^ bname,
              summary ~jammer "jam_resist:cogcast" backend );
          ])
      backends

let golden_path () =
  List.find_opt Sys.file_exists
    [ "golden_summaries.json"; "test/golden_summaries.json" ]

let test_golden_summaries () =
  let module Json = Crn_stats.Json in
  let golden =
    match golden_path () with
    | None -> Alcotest.fail "golden_summaries.json not found"
    | Some path -> (
        let ic = open_in_bin path in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Json.of_string text with
        | Ok (Json.Obj fields) -> fields
        | Ok _ | Error _ -> Alcotest.fail "golden_summaries.json is not an object")
  in
  let cases = golden_cases () in
  Alcotest.(check (list string))
    "golden labels" (List.map fst golden) (List.map fst cases);
  List.iter
    (fun (label, got) ->
      Alcotest.(check string) label (Json.to_string (List.assoc label golden)) got)
    cases

(* ---- declared capabilities ---- *)

(* Every entry and its jam_resist: wrap, against its declared
   capabilities: a "yes" cell runs, a "no" cell is rejected — by
   [Protocol.run] with the one wording for max_slots, metrics and load, and
   by the CLI (exit 124, before any trial) for --dynamic and load. *)
let matrix_entries () =
  Registry.all
  @ List.map
      (fun p -> Registry.find_exn ("jam_resist:" ^ Protocol.name p))
      Registry.all

let test_capability_matrix_library () =
  let n = 12 and c = 6 and k = 2 in
  let assignment =
    Topology.generate Topology.Shared_plus_random (Rng.create 21)
      { Topology.n; c; k }
  in
  let load = { Protocol.rate = 0.3; arrivals = Protocol.Poisson; rumors = 3 } in
  List.iter
    (fun p ->
      let name = Protocol.name p in
      let caps = Protocol.capabilities p in
      let run ?max_slots ?metrics ?load
          ?(availability = Dynamic.static assignment) () =
        Protocol.run p
          (Protocol.env ?max_slots ?metrics ?load ~k ~availability
             ~rng:(Rng.create 22) ())
      in
      let plain = Crn_stats.Json.to_string (Protocol.summary_json (run ())) in
      let changes s =
        Crn_stats.Json.to_string (Protocol.summary_json s) <> plain
      in
      (* A "yes" must be honored, not just accepted: the budget bounds the
         run, the metrics fill, the load changes it. *)
      let cell feature supported honored =
        if supported then
          Alcotest.(check bool)
            (Printf.sprintf "%s honors %s" name feature)
            true (honored ())
        else
          Alcotest.check_raises
            (Printf.sprintf "%s rejects %s" name feature)
            (Invalid_argument (Protocol.unsupported p feature))
            (fun () -> ignore (honored ()))
      in
      cell "max_slots" caps.Protocol.max_slots (fun () ->
          (run ~max_slots:2 ()).Protocol.slots_run <= 2);
      cell "metrics" caps.Protocol.metrics (fun () ->
          let m = Crn_radio.Metrics.create n in
          ignore (run ~metrics:m ());
          Crn_radio.Metrics.total_awake m > 0);
      cell "load" caps.Protocol.load (fun () -> changes (run ~load ()));
      (* Whether a run reads a reassignment depends on how many slots it
         takes (slot 0 of a rotation is the base), so "yes" here is
         "runs"; "no" is the CLI's to reject. *)
      if caps.Protocol.dynamic then
        ignore (run ~availability:(Dynamic.rotating assignment) ()))
    (matrix_entries ());
  (* The Theorem 18 wrap supplies its own availability and keeps the rest
     of its inner entry's capabilities. *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Protocol.name p ^ ": jam_resist inherits all but dynamic")
        true
        (Protocol.capabilities (Registry.find_exn ("jam_resist:" ^ Protocol.name p))
        = { (Protocol.capabilities p) with Protocol.dynamic = false }))
    Registry.all

let test_capability_matrix_cli () =
  let dims = "-n 12 -c 6 -k 2 --trials 1 --jobs 1" in
  List.iter
    (fun p ->
      let name = Protocol.name p in
      let caps = Protocol.capabilities p in
      let expect ~supported cmd =
        let code, out = Cli.run cmd in
        if supported then Alcotest.(check int) cmd 0 code
        else begin
          Alcotest.(check int) cmd Cli.cli_error code;
          Alcotest.(check string) (cmd ^ ": nothing ran") "" out
        end
      in
      expect ~supported:caps.Protocol.dynamic
        (Printf.sprintf "run -p %s %s --dynamic rotating" name dims);
      expect ~supported:caps.Protocol.load
        (Printf.sprintf "run -p %s %s --rate 0.5 --rumors 2" name dims))
    (matrix_entries ())

(* The declared matrix itself, cell by cell, so a change to what an entry
   supports is a visible edit here. seq_scan and deterministic build their
   channel tables from the slot-0 assignment, so they are static-only like
   the COGCOMPs. *)
let test_capability_matrix_pinned () =
  let expected =
    [
      (* name, dynamic, max_slots, metrics, load *)
      ("cogcast", true, true, true, false);
      ("cogcomp", false, false, false, false);
      ("cogcomp_robust", false, false, false, false);
      ("broadcast_baseline", true, true, true, false);
      ("aggregation_baseline", true, true, true, false);
      ("aggregation_baseline_honest", true, true, true, false);
      ("random_hop", true, true, true, false);
      ("seq_scan", false, true, true, false);
      ("deterministic", false, true, true, false);
      ("gossip", true, true, true, true);
      ("push_sum", true, true, true, true);
    ]
  in
  let row p =
    let c = Protocol.capabilities p in
    ( Protocol.name p,
      c.Protocol.dynamic,
      c.Protocol.max_slots,
      c.Protocol.metrics,
      c.Protocol.load )
  in
  let show (name, d, m, me, l) =
    Printf.sprintf "%s dynamic=%b max_slots=%b metrics=%b load=%b" name d m me l
  in
  Alcotest.(check (list string))
    "capability matrix" (List.map show expected)
    (List.map (fun p -> show (row p)) Registry.all)

(* Theorem 18 covers inner protocols that solve broadcast on a dynamic
   spectrum: under a live jammer the wrap of a static-only entry is
   rejected, naming both entries, while a dynamic entry still runs. *)
let test_jam_resist_needs_dynamic () =
  let n = 16 and c = 8 and k = 2 in
  let rng = Rng.create 3 in
  let assignment =
    Topology.generate Topology.Shared_plus_random rng { Topology.n; c; k }
  in
  let jammer =
    Crn_radio.Jammer.random_per_node ~seed:1L ~budget:3
      ~num_channels:(Assignment.num_channels assignment)
  in
  let run name =
    Protocol.run (Registry.find_exn name)
      (Protocol.env ~jammer ~k ~availability:(Dynamic.static assignment)
         ~rng:(Rng.copy rng) ())
  in
  List.iter
    (fun inner ->
      Alcotest.check_raises ("jam_resist:" ^ inner)
        (Invalid_argument
           (Printf.sprintf
              "jam_resist:%s: %s does not support a dynamic spectrum, which \
               the Theorem 18 transform needs under a jammer budget 3 > 0"
              inner inner))
        (fun () -> ignore (run ("jam_resist:" ^ inner))))
    [ "cogcomp"; "cogcomp_robust"; "seq_scan"; "deterministic" ];
  Alcotest.(check bool)
    "jam_resist:cogcast runs under budget 3" true
    ((run "jam_resist:cogcast").Protocol.slots_run > 0);
  let dims = "-n 16 -c 8 -k 2 --trials 2 --jobs 1 --jam-budget 3" in
  let code, out = Cli.run ("run -p jam_resist:cogcomp " ^ dims) in
  Alcotest.(check int) "CLI jam_resist:cogcomp" Cli.cli_error code;
  Alcotest.(check string) "CLI jam_resist:cogcomp: nothing printed" "" out;
  let code, _ = Cli.run ("run -p jam_resist:cogcast " ^ dims) in
  Alcotest.(check int) "CLI jam_resist:cogcast" 0 code;
  let chaos = "chaos -n 16 -c 8 -k 2 --trials 1 --jobs 1 --fault-kind jam --rates 0.5" in
  let code, out = Cli.run (chaos ^ " --protocols jam_resist:cogcomp") in
  Alcotest.(check int) "CLI chaos jam_resist:cogcomp" Cli.cli_error code;
  Alcotest.(check string) "CLI chaos jam_resist:cogcomp: nothing printed" "" out

(* Counts must be positive, sweep input well-formed and protocol names
   registered; each bad value exits 124 before any trial runs, instead of
   crashing, printing NaN or reporting zeros. *)
let test_cli_rejects_bad_counts () =
  List.iter
    (fun cmd ->
      let code, out = Cli.run cmd in
      Alcotest.(check int) cmd Cli.cli_error code;
      Alcotest.(check string) (cmd ^ ": nothing ran") "" out)
    [
      "run -p cogcast --trials 0";
      "run -p cogcast -n 0";
      "run -p cogcast --shards 0";
      "game --trials 0";
      "backoff --trials 0";
      "run -p jam_resist:cogcast --topology identical --jam-budget 2 -n 0";
      "chaos --trials 0";
      "run -p gossip --rumors 0";
      "run -p cogcast --jobs 0";
      "run -p cogcast --sweep n=8,abc,16";
      "run -p cogcast --sweep n=,";
      "run -p cogcast --sweep x=1,2";
      "run -p cogcast --sweep k=2,99";
      "run -p cogcast --sweep n=8,16 --trace t.jsonl";
      "run -p cogcast --sweep n=8,16 --metrics m.json";
      "chaos --protocols robust";
      "chaos --protocols , --trials 1";
      "chaos --rates , --trials 1";
      "chaos -n 16 -c 8 -k 2 --fault-kind churn --rates 0,0.5,0.95 --trials 2 \
       --protocols cogcast";
      "chaos --fault-kind jam --protocols jam_resist:cogcomp";
    ];
  (* A churn rate above 8/9 has a mean up time below one slot: the error
     names the rate. *)
  let err = Filename.temp_file "crn_cli" ".err" in
  ignore
    (Sys.command
       (Printf.sprintf "%s chaos --fault-kind churn --rates 0,0.95 >/dev/null 2>%s"
          (Filename.quote (Cli.exe ())) (Filename.quote err)));
  let ic = open_in_bin err in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  let needle = "--rates 0.95:" in
  let found = ref false in
  for i = 0 to String.length text - String.length needle do
    if String.sub text i (String.length needle) = needle then found := true
  done;
  if not !found then Alcotest.failf "churn rate 0.95: error %S does not name it" text

(* ---- registry lookup ---- *)

let test_registry_lookup () =
  Alcotest.(check int) "eleven entries" 11 (List.length Registry.all);
  let names = Registry.names () in
  Alcotest.(check int)
    "names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  (match Registry.find "COGCAST" with
  | Some p -> Alcotest.(check string) "case-insensitive" "cogcast" (Protocol.name p)
  | None -> Alcotest.fail "COGCAST not found");
  (match Registry.find "cogcomp-robust" with
  | Some p ->
      Alcotest.(check string) "hyphen normalization" "cogcomp_robust" (Protocol.name p)
  | None -> Alcotest.fail "cogcomp-robust not found");
  Alcotest.(check bool) "unknown name" true (Registry.find "no_such_protocol" = None)

let test_env_budget_factor () =
  let availability =
    Dynamic.static
      (Topology.identical (Rng.create 1) { Topology.n = 4; c = 4; k = 2 })
  in
  List.iter
    (fun budget_factor ->
      Alcotest.check_raises
        (Printf.sprintf "budget factor %g" budget_factor)
        (Invalid_argument "Protocol.env: budget factor must be finite and > 0")
        (fun () ->
          ignore
            (Protocol.env ~budget_factor ~availability ~rng:(Rng.create 2) ())))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let () =
  Alcotest.run "proto"
    [
      ( "differential",
        [
          Alcotest.test_case "cogcast registry = direct" `Quick test_cogcast_differential;
          Alcotest.test_case "cogcomp registry = direct" `Quick test_cogcomp_differential;
          Alcotest.test_case "cogcomp summaries report measured counters" `Quick
            test_cogcomp_summary_counters;
          Alcotest.test_case "cogcomp_robust registry = direct (faulty)" `Quick
            test_cogcomp_robust_differential;
          Alcotest.test_case "cogcomp completed runs carry the exact sum" `Quick
            test_cogcomp_completed_is_exact;
        ] );
      ( "baseline ports",
        [
          Alcotest.test_case "random_hop = pure loop" `Quick
            test_random_hop_matches_pure_loop;
        ] );
      ( "uniform harness",
        [
          Alcotest.test_case "byte-identical traces at jobs 1/2/8" `Quick
            test_jobs_determinism;
          Alcotest.test_case "run --json per_trial at jobs 1/2 and soa shards 2"
            `Quick test_cli_run_json_determinism;
          Alcotest.test_case "run --sweep keeps the sweep's numbers" `Quick
            test_cli_sweep_known_answer;
          Alcotest.test_case "run --sweep --json point = plain run" `Quick
            test_cli_sweep_json_per_point;
          Alcotest.test_case "Run.point known answers (bench cells)" `Quick
            test_run_point_known_answers;
          Alcotest.test_case "Run.point crn-run/1 = run --json" `Quick
            test_run_point_json_is_cli;
          Alcotest.test_case "fault-free traces pass Check.all" `Quick
            test_traces_check_clean;
          Alcotest.test_case "every protocol survives faults" `Quick
            test_faulty_run_all_protocols;
          Alcotest.test_case "registry audit on the soa backend" `Quick
            test_soa_backend_sweep;
          Alcotest.test_case "golden summary_json (engine, emulation)" `Quick
            test_golden_summaries;
        ] );
      ( "capabilities",
        [
          Alcotest.test_case "matrix: yes runs, no raises" `Quick
            test_capability_matrix_library;
          Alcotest.test_case "matrix through the CLI" `Quick
            test_capability_matrix_cli;
          Alcotest.test_case "declared matrix pinned" `Quick
            test_capability_matrix_pinned;
          Alcotest.test_case "jam_resist needs a dynamic inner entry" `Quick
            test_jam_resist_needs_dynamic;
          Alcotest.test_case "CLI rejects bad counts and sweep input" `Quick
            test_cli_rejects_bad_counts;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "env rejects bad budget factors" `Quick
            test_env_budget_factor;
        ] );
    ]
