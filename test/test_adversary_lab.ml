(* The adversary laboratory: the Theorem 18 jam_resist transformer, the
   dynamic-spectrum arming modes, and the checked Run points every chaos
   cell and `run --check` share.

   The two load-bearing contracts:
   - budget-0 transparency: wrapping a protocol with jam_resist must be
     byte-identical (traces included) to the plain protocol when no jammer
     is armed — property-tested with shrinking across every registry entry;
   - robustness: every registry protocol survives the composed reactive
     jammer + per-slot reshuffle adversary with zero invariant violations —
     adversaries may slow protocols down but never break the simulator. *)

module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Dynamic = Crn_channel.Dynamic
module Assignment = Crn_channel.Assignment
module Adversary = Crn_channel.Adversary
module Trace = Crn_radio.Trace
module Jammer = Crn_radio.Jammer
module Cogcast = Crn_core.Cogcast
module Protocol = Crn_proto.Protocol
module Registry = Crn_proto.Registry
module Jam_resist = Crn_proto.Jam_resist
module Adversary_lab = Crn_proto.Adversary_lab
module Run = Crn_proto.Run

(* A product generator with coordinate-wise shrinking, for the quad-shaped
   configurations the properties below range over. *)
let quad g1 g2 g3 g4 =
  {
    Prop.sample =
      (fun rng ->
        let a = g1.Prop.sample rng in
        let b = g2.Prop.sample rng in
        let c = g3.Prop.sample rng in
        let d = g4.Prop.sample rng in
        (a, b, c, d));
    shrink =
      (fun (a, b, c, d) ->
        Seq.append
          (Seq.map (fun a' -> (a', b, c, d)) (g1.Prop.shrink a))
          (Seq.append
             (Seq.map (fun b' -> (a, b', c, d)) (g2.Prop.shrink b))
             (Seq.append
                (Seq.map (fun c' -> (a, b, c', d)) (g3.Prop.shrink c))
                (Seq.map (fun d' -> (a, b, c, d')) (g4.Prop.shrink d)))));
    print =
      (fun (a, b, c, d) ->
        Printf.sprintf "(%s, %s, %s, %s)" (g1.Prop.print a) (g2.Prop.print b)
          (g3.Prop.print c) (g4.Prop.print d));
  }

(* ---- budget-0 transparency (Theorem 18, trivial case) ---- *)

let run_traced proto ~n ~c ~k ~seed =
  let spec = { Topology.n; c; k } in
  let rng = Rng.create seed in
  let assignment = Topology.generate Topology.Shared_plus_random rng spec in
  let tr = Trace.create () in
  let s =
    Protocol.run proto
      (Protocol.env ~trace:tr ~k ~availability:(Dynamic.static assignment) ~rng
         ())
  in
  (Trace.to_jsonl tr, s)

let test_budget0_byte_identity () =
  let num_protos = List.length Registry.all in
  Prop.check ~count:60 ~name:"jam_resist budget-0 transparency"
    (quad
       (Prop.int_range 0 (num_protos - 1))
       (Prop.int_range 4 24) (Prop.int_range 2 8) (Prop.int_range 1 1000))
    (fun (idx, n, c, seed) ->
      let k = 1 + ((n + seed) mod c) in
      let proto = List.nth Registry.all idx in
      let plain_trace, plain = run_traced proto ~n ~c ~k ~seed in
      let wrapped_trace, wrapped =
        run_traced (Jam_resist.wrap proto) ~n ~c ~k ~seed
      in
      if plain_trace <> wrapped_trace then
        Some
          (Printf.sprintf "%s: traces differ under budget-0 wrap"
             (Protocol.name proto))
      else if
        { wrapped with Protocol.protocol = plain.Protocol.protocol } <> plain
      then
        Some
          (Printf.sprintf "%s: summaries differ under budget-0 wrap"
             (Protocol.name proto))
      else if
        wrapped.Protocol.protocol
        <> Jam_resist.wrapped_name plain.Protocol.protocol
      then Some "wrapped summary does not carry the jam_resist: name"
      else None)

(* ---- the transform completes for every legal budget ---- *)

let test_jam_resist_completes_under_budget () =
  Prop.check ~count:50 ~name:"jam_resist:cogcast completes for all t < C/2"
    (quad (Prop.int_range 8 32) (Prop.int_range 5 14) (Prop.int_range 1 100)
       (Prop.int_range 1 1000))
    (fun (n, c, t_raw, seed) ->
      (* Everyone owns the whole spectrum (the §7 uniform model); any
         budget with 2t < C is legal. *)
      let t = 1 + (t_raw mod ((c - 1) / 2)) in
      let spec = { Topology.n; c; k = c } in
      let rng = Rng.create seed in
      let assignment = Topology.generate Topology.Identical rng spec in
      let jammer =
        Jammer.random_per_node ~seed:(Int64.of_int (seed * 31)) ~budget:t
          ~num_channels:c
      in
      let s =
        Protocol.run
          (Registry.find_exn "jam_resist:cogcast")
          (Protocol.env ~jammer ~k:c
             ~availability:(Dynamic.static assignment) ~rng ())
      in
      if not s.Protocol.completed then
        Some
          (Printf.sprintf "did not complete with n=%d c=%d t=%d (2t=%d < %d)"
             n c t (2 * t) c)
      else None)

let test_jam_resist_rejects_overbudget () =
  let n = 8 and c = 6 in
  let spec = { Topology.n; c; k = c } in
  let rng = Rng.create 7 in
  let assignment = Topology.generate Topology.Identical rng spec in
  let jammer =
    Jammer.random_per_node ~seed:3L ~budget:3 ~num_channels:c
  in
  match
    Protocol.run
      (Registry.find_exn "jam_resist:cogcast")
      (Protocol.env ~jammer ~k:c ~availability:(Dynamic.static assignment)
         ~rng ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted a jammer with 2t >= C (Theorem 18 precondition)"

(* ---- monotone degradation of the plain protocol (fixed seeds) ---- *)

let median_slots ~budget =
  let n = 32 and c = 12 in
  let spec = { Topology.n; c; k = c } in
  let samples =
    Array.init 31 (fun i ->
        let rng = Rng.create (1000 + i) in
        let assignment = Topology.generate Topology.Identical rng spec in
        let jammer =
          if budget = 0 then None
          else
            Some
              (Jammer.random_per_node
                 ~seed:(Int64.of_int (7 * i))
                 ~budget ~num_channels:c)
        in
        let s =
          Protocol.run (Registry.find_exn "cogcast")
            (Protocol.env ?jammer ~k:c
               ~availability:(Dynamic.static assignment) ~rng ())
        in
        float_of_int
          (match s.Protocol.completed_at with
          | Some v -> v
          | None -> s.Protocol.slots_run))
  in
  Crn_stats.Summary.median samples

let test_plain_degradation_monotone () =
  let m0 = median_slots ~budget:0 in
  let m2 = median_slots ~budget:2 in
  let m5 = median_slots ~budget:5 in
  if not (m0 <= m2 +. 0.5 && m2 <= m5 +. 0.5) then
    Alcotest.failf
      "plain cogcast medians not monotone in jammer budget: t=0 -> %.1f, t=2 \
       -> %.1f, t=5 -> %.1f"
      m0 m2 m5

(* ---- dynamic arming: per-slot overlap stays >= k ---- *)

let test_dynamic_overlap_invariant () =
  List.iter
    (fun topology ->
      List.iter
        (fun mode ->
          let spec = { Topology.n = 20; c = 8; k = 3 } in
          let armed =
            Adversary_lab.arm ~mode ~topology ~spec ~source:0
              ~rng:(Rng.create 42)
          in
          for slot = 0 to 40 do
            let a = Dynamic.at armed.Adversary_lab.availability slot in
            let overlap = Assignment.min_pairwise_overlap a in
            if overlap < spec.Topology.k then
              Alcotest.failf "%s/%s: slot %d overlap %d < k=%d"
                (Topology.kind_name topology)
                (Adversary_lab.mode_name mode)
                slot overlap spec.Topology.k
          done)
        [ Adversary_lab.Rotating; Adversary_lab.Reshuffle ])
    [ Topology.Shared_core; Topology.Shared_plus_random; Topology.Clustered ]

(* Reshuffle must actually reshuffle: some early slot differs from slot 0. *)
let test_reshuffle_changes_assignment () =
  let spec = { Topology.n = 16; c = 6; k = 2 } in
  let armed =
    Adversary_lab.arm ~mode:Adversary_lab.Reshuffle
      ~topology:Topology.Shared_core ~spec ~source:0 ~rng:(Rng.create 9)
  in
  let row slot node =
    let a = Dynamic.at armed.Adversary_lab.availability slot in
    List.init 6 (fun label -> Assignment.global_of_local a ~node ~label)
  in
  let changed = ref false in
  for slot = 1 to 10 do
    for node = 0 to 15 do
      if row slot node <> row 0 node then changed := true
    done
  done;
  if not !changed then
    Alcotest.fail "reshuffle mode never changed any node's channel row"

(* ---- Theorem 17 / §7 footnote 1: the oracle must be right ---- *)

let test_isolation_needs_the_right_oracle () =
  let n = 16 and c = 8 and k = 3 in
  let spec = { Topology.n; c; k } in
  let horizon = 2_000 in
  let leaked = 2025 and secret = 31337 in
  let adversary victim_seed =
    let availability =
      Adversary.isolate_source ~spec ~source:0
        ~predict_source_label:(Cogcast.label_oracle ~seed:leaked ~n ~c ~node:0)
    in
    Cogcast.run ~source:0 ~availability ~rng:(Rng.create victim_seed)
      ~max_slots:horizon ()
  in
  (* Right oracle: the victim replays the leaked stream and stays isolated. *)
  let isolated = adversary leaked in
  if isolated.Cogcast.completed_at <> None then
    Alcotest.fail "leaked-seed COGCAST escaped the Theorem 17 adversary";
  if isolated.Cogcast.informed_count <> 1 then
    Alcotest.failf "leaked-seed run informed %d nodes; the source must stay alone"
      isolated.Cogcast.informed_count;
  (* Wrong oracle (footnote 1): a secret seed makes the predictor useless. *)
  let escaped = adversary secret in
  if escaped.Cogcast.completed_at = None then
    Alcotest.fail
      "secret-seed COGCAST failed to escape an adversary with the wrong oracle"

(* The CLI-facing arming path leaks the trial's own seed by construction. *)
let test_arm_isolate_isolates () =
  let spec = { Topology.n = 16; c = 8; k = 3 } in
  let armed =
    Adversary_lab.arm ~mode:Adversary_lab.Isolate
      ~topology:Topology.Shared_core ~spec ~source:0 ~rng:(Rng.create 123)
  in
  let r =
    Cogcast.run ~source:0 ~availability:armed.Adversary_lab.availability
      ~rng:armed.Adversary_lab.rng ~max_slots:500 ()
  in
  if r.Cogcast.informed_count <> 1 then
    Alcotest.failf "isolate arming informed %d nodes; expected source only"
      r.Cogcast.informed_count

(* ---- checked points: the whole registry under the composed adversary ---- *)

let jam = Result.get_ok (Run.parse_faults "jam")

let test_all_protocols_survive_composed_adversary () =
  let spec = { Topology.n = 16; c = 6; k = 2 } in
  Crn_exec.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun proto ->
          (* A static-only entry would snapshot a reshuffle, which a point
             rejects up front: it faces the jammer on one assignment. *)
          let dynamic =
            if (Protocol.capabilities proto).Protocol.dynamic then Adversary_lab.Reshuffle
            else Adversary_lab.Static
          in
          let r =
            Run.point ~pool
              (Run.spec ~topology:Topology.Shared_core ~dynamic ~faults:jam ~check:true
                 ~trials:2 ~seed:77 proto spec)
          in
          List.iter
            (fun f ->
              Alcotest.failf "%s trial %d: %d invariant violation(s) under reactive+%s"
                (Protocol.name proto) f.Run.trial (List.length f.Run.violations)
                (Adversary_lab.mode_name dynamic))
            r.Run.failures;
          Array.iter
            (fun s ->
              if s.Protocol.slots_run <= 0 then
                Alcotest.failf "%s: ran no slots under the composed adversary"
                  (Protocol.name proto))
            r.Run.summaries)
        Registry.all)

(* A checked point surfaces what its checker reports, with the trace, for
   every trial; tracing changes no summary, and an unchecked point consults
   no checker. *)
let test_checked_point_surfaces_violations () =
  let fake _trace = [ { Trace.Check.invariant = "fake"; detail = "injected" } ] in
  let spec =
    Run.spec ~topology:Topology.Shared_core ~check:true ~trials:2 ~seed:5
      (Registry.find_exn "cogcast") { Topology.n = 8; c = 4; k = 2 }
  in
  Crn_exec.Pool.with_pool ~jobs:2 (fun pool ->
      let checked = Run.point ~checker:fake ~pool spec in
      Alcotest.(check (list int))
        "every trial fails" [ 0; 1 ]
        (List.map (fun f -> f.Run.trial) checked.Run.failures);
      List.iter
        (fun f ->
          (match f.Run.violations with
          | [ { Trace.Check.invariant = "fake"; _ } ] -> ()
          | v -> Alcotest.failf "expected the injected violation, got %d" (List.length v));
          if String.length f.Run.trace_jsonl = 0 then
            Alcotest.fail "violating trial did not carry its trace")
        checked.Run.failures;
      let plain = Run.point ~checker:fake ~pool { spec with Run.check = false } in
      Alcotest.(check int) "unchecked: no failures" 0 (List.length plain.Run.failures);
      Alcotest.(check string)
        "checking changes no summary"
        (Crn_stats.Json.to_string plain.Run.json)
        (Crn_stats.Json.to_string checked.Run.json))

(* ---- every trial its own adversary realization ---- *)

(* What a trace shows of its adversary: per (slot, node), down, or the
   channel the node tuned to and whether that action was jammed. *)
let observed jsonl =
  let h = Hashtbl.create 256 in
  Trace.iter
    (function
      | Trace.Down { slot; node } -> Hashtbl.replace h (slot, node) `Down
      | Trace.Jam { slot; node; channel } ->
          Hashtbl.replace h (slot, node) (`Tuned (channel, true))
      | Trace.Decide { slot; node; channel; _ } ->
          Hashtbl.replace h (slot, node) (`Tuned (channel, false))
      | _ -> ())
    (Result.get_ok (Trace.of_jsonl jsonl));
  h

(* Observations two traces share that no single realization explains: a
   node down in one and up in the other, or one channel jammed in one and
   clear in the other, at the same slot. *)
let disagreements a b =
  Hashtbl.fold
    (fun key x acc ->
      match (x, Hashtbl.find_opt b key) with
      | `Down, Some (`Tuned _) | `Tuned _, Some `Down -> acc + 1
      | `Tuned (ch, j), Some (`Tuned (ch', j')) when ch = ch' && j <> j' -> acc + 1
      | _ -> acc)
    a 0

(* Trials 0 and 1 of a --faults or --jam-budget point face different
   realizations: seeded from --fault-seed alone they would be the same. *)
let test_trials_face_own_adversary () =
  let everything _ = [ { Trace.Check.invariant = "keep"; detail = "keep the trace" } ] in
  let cogcast = Registry.find_exn "cogcast" in
  List.iter
    (fun (label, spec) ->
      match
        Crn_exec.Pool.with_pool ~jobs:2 (fun pool ->
            (Run.point ~checker:everything ~pool spec).Run.failures)
      with
      | [ t0; t1 ] ->
          let d =
            disagreements (observed t0.Run.trace_jsonl) (observed t1.Run.trace_jsonl)
          in
          if d = 0 then Alcotest.failf "%s: trials 0 and 1 faced one realization" label
      | _ -> Alcotest.failf "%s: expected both trials' traces" label)
    [
      ( "--jam-budget 2",
        Run.spec ~topology:Topology.Identical ~jam_budget:2 ~check:true ~trials:2 ~seed:3
          cogcast { Topology.n = 24; c = 12; k = 12 } );
      ( "--faults naps:0.3",
        Run.spec
          ~faults:(Result.get_ok (Run.parse_faults "naps:0.3"))
          ~check:true ~trials:2 ~seed:3 cogcast
          { Topology.n = 24; c = 8; k = 2 } );
    ]

(* ---- chaos cells are run points ---- *)

(* The JSON document in [path], which is then removed. *)
let consume_json path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Crn_stats.Json.of_string text with
  | Ok doc -> doc
  | Error m -> Alcotest.failf "%s: bad JSON: %s" path m

(* The text after [marker] in [line], if it occurs. *)
let after ~marker line =
  let m = String.length marker and l = String.length line in
  let rec go i =
    if i + m > l then None
    else if String.sub line i m = marker then Some (String.sub line (i + m) (l - i - m))
    else go (i + 1)
  in
  go 0

let number doc key =
  match Crn_stats.Json.member key doc with
  | Some (Crn_stats.Json.Float f) -> f
  | Some (Crn_stats.Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "no number %S" key

(* Each family's cell prints a reproducer; `crn_sim run` on it reports the
   cell's completion, coverage and mean slots. *)
let test_chaos_cell_is_its_reproducer () =
  let module Json = Crn_stats.Json in
  List.iter
    (fun kind ->
      let chaos_json = Filename.temp_file "crn_chaos" ".json" in
      let cmd =
        Printf.sprintf
          "chaos -n 16 -c 8 -k 2 --trials 3 --seed 2 --fault-kind %s --rates 0.1 \
           --protocols cogcast --json %s"
          kind (Filename.quote chaos_json)
      in
      let code, out = Cli.run cmd in
      Alcotest.(check int) cmd 0 code;
      let point =
        match Json.member "protocols" (consume_json chaos_json) with
        | Some (Json.List [ p ]) -> (
            match Json.member "points" p with
            | Some (Json.List [ pt ]) -> pt
            | _ -> Alcotest.failf "%s: expected one point" cmd)
        | _ -> Alcotest.failf "%s: expected one protocol" cmd
      in
      let marker = "reproduce: crn_sim " in
      let args =
        match
          List.find_map
            (after ~marker) (String.split_on_char '\n' out)
        with
        | Some a -> a
        | None -> Alcotest.failf "%s printed no reproducer" cmd
      in
      if after ~marker:"--check" args = None then
        Alcotest.failf "%s: reproducer %S is unchecked" kind args;
      let run_json = Filename.temp_file "crn_run" ".json" in
      let code, _ = Cli.run (Printf.sprintf "%s --json %s" args (Filename.quote run_json)) in
      Alcotest.(check int) args 0 code;
      let run = consume_json run_json in
      let slots =
        match Json.member "per_trial" run with
        | Some (Json.List l) ->
            List.fold_left (fun acc t -> acc +. number t "slots_run") 0.0 l
            /. float_of_int (List.length l)
        | _ -> Alcotest.failf "%s: no per_trial" args
      in
      List.iter
        (fun (what, cell, reproduced) ->
          Alcotest.(check (float 0.0)) (Printf.sprintf "%s %s" kind what) cell reproduced)
        [
          ("completion", number point "completion_rate", number run "completion_rate");
          ("coverage", number point "mean_coverage", number run "mean_coverage");
          ("slots", number point "mean_total_slots", slots);
        ])
    [ "naps"; "churn"; "crash"; "jam" ]

(* ---- the --check exit code of chaos and run, end to end ---- *)

(* Healthy sweeps exit 0; any violating trial must flip --check to a
   nonzero exit and dump its trace. Violations cannot occur in a healthy
   build, so the binary's CRN_CHAOS_INJECT_VIOLATION selftest hook injects
   one. chaos and run check through the same Run.point. *)
let test_chaos_check_exit_code () =
  List.iter
    (fun args ->
      let tmp = Filename.temp_file "crn_chaos" "" in
      Sys.remove tmp;
      Sys.mkdir tmp 0o755;
      let run env =
        Sys.command
          (Printf.sprintf "cd %s && %s %s %s --check >/dev/null 2>&1"
             (Filename.quote tmp) env (Filename.quote (Cli.exe ())) args)
      in
      let clean = run "" in
      let clean_dumps = Sys.readdir tmp in
      let injected = run "CRN_CHAOS_INJECT_VIOLATION=1" in
      let dumped = Sys.readdir tmp in
      Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) dumped;
      Sys.rmdir tmp;
      Alcotest.(check int) (args ^ " --check: clean exit") 0 clean;
      Alcotest.(check int) (args ^ " --check: clean dumps") 0 (Array.length clean_dumps);
      if injected = 0 then
        Alcotest.failf "%s --check exited 0 despite per-trial violations" args;
      if
        not
          (Array.exists
             (fun f -> String.length f >= 13 && String.sub f 0 13 = "trace_failure")
             dumped)
      then Alcotest.failf "%s: violating trials did not dump trace_failure_*.jsonl" args)
    [
      "chaos -n 12 -c 6 -k 2 --fault-kind jam --dynamic reshuffle --rates 0,0.5 \
       --trials 3 --protocols cogcast";
      "run -p cogcast -n 12 -c 6 -k 2 --trials 3";
    ]

(* ---- registry resolution of the jam_resist: prefix ---- *)

let test_registry_resolves_prefix () =
  (match Registry.find "jam_resist:cogcast" with
  | Some p ->
      Alcotest.(check string)
        "wrapped name" "jam_resist:cogcast" (Protocol.name p)
  | None -> Alcotest.fail "jam_resist:cogcast not found");
  (match Registry.find "JAM-RESIST:COGCAST" with
  | Some _ -> ()
  | None -> Alcotest.fail "prefix lookup is not case/sep-insensitive");
  (match Registry.find "jam_resist:nonexistent" with
  | Some _ -> Alcotest.fail "wrapped a protocol that does not exist"
  | None -> ());
  match Registry.find "jam_resist:jam_resist:cogcast" with
  | Some _ -> Alcotest.fail "double wrapping must not resolve"
  | None -> ()

let () =
  Alcotest.run "adversary_lab"
    [
      ( "jam_resist",
        [
          Alcotest.test_case "budget-0 byte identity" `Quick
            test_budget0_byte_identity;
          Alcotest.test_case "completes for all legal budgets" `Quick
            test_jam_resist_completes_under_budget;
          Alcotest.test_case "rejects 2t >= C" `Quick
            test_jam_resist_rejects_overbudget;
          Alcotest.test_case "plain degradation monotone" `Quick
            test_plain_degradation_monotone;
          Alcotest.test_case "registry resolves prefix" `Quick
            test_registry_resolves_prefix;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "per-slot overlap >= k" `Quick
            test_dynamic_overlap_invariant;
          Alcotest.test_case "reshuffle reshuffles" `Quick
            test_reshuffle_changes_assignment;
          Alcotest.test_case "isolation needs the right oracle" `Quick
            test_isolation_needs_the_right_oracle;
          Alcotest.test_case "arm isolate isolates" `Quick
            test_arm_isolate_isolates;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "registry survives reactive+reshuffle" `Quick
            test_all_protocols_survive_composed_adversary;
          Alcotest.test_case "checked point surfaces violations" `Quick
            test_checked_point_surfaces_violations;
          Alcotest.test_case "trials face their own adversary" `Quick
            test_trials_face_own_adversary;
          Alcotest.test_case "chaos cell is its reproducer" `Quick
            test_chaos_cell_is_its_reproducer;
          Alcotest.test_case "chaos --check exit code" `Quick
            test_chaos_check_exit_code;
        ] );
    ]
