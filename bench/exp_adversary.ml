(* E24: the adversary laboratory — degradation curves for protocols under
   dynamic spectrum reassignment (§7) and n-uniform jamming (Theorem 18).

   Part A verifies that the per-slot reassignment policies remain *legal*
   dynamic CRN instances (sampled pairwise overlap >= k every slot) and
   that COGCAST — one `crn_sim run --dynamic MODE` point per mode — still
   completes within Theorem 4's slot budget under them
   — the §7 claim that the epidemic needs no knowledge of the assignment's
   history. The Theorem 17 conspiracy rides along as the contrast row: a
   legal-looking adversary that predicts the source's choices defeats any
   budget.

   Part B sweeps the jammer budget t on the uniform spectrum (one `crn_sim
   run --jam-budget T` point per cell) and puts the plain protocol
   (receiver-side jamming) and its jam_resist: transform (Theorem 18
   reduction) on the same curve: the transform trades a
   constant-factor slowdown for immunity to the budget, and degradation is
   monotone in t for both.

   Part C composes the adversaries: the reactive jammer on top of each
   reassignment policy (one `crn_sim run --faults jam --dynamic MODE
   --check` point per cell), every trial replayed through the trace
   invariant checkers — the CI contract that adversaries may slow protocols
   down but never break the simulator. *)

open Bench_util
module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Assignment = Crn_channel.Assignment
module Dynamic = Crn_channel.Dynamic
module Complexity = Crn_core.Complexity
module Protocol = Crn_proto.Protocol
module Registry = Crn_proto.Registry
module Adversary_lab = Crn_proto.Adversary_lab
module Table = Crn_stats.Table

let e24 () =
  header "E24"
    "Adversary laboratory: dynamic spectrum + jamming degradation (Thm 4, 17, 18)";

  (* ---- Part A: reassignment policies vs Theorem 4's budget ---- *)
  let n = if !quick then 32 else 64 in
  let c = if !quick then 8 else 16 in
  let k = if !quick then 3 else 4 in
  let spec = { Topology.n; c; k } in
  let budget = Complexity.cogcast_slots ~n ~c ~k () in
  let trials_a = trials ~full:60 in
  let dynamic mode =
    Run.spec ~topology:Topology.Shared_core ~dynamic:mode ~trials:trials_a ~seed:24_100
      (Registry.find_exn "cogcast") spec
  in
  let ta =
    Table.create
      [ "dynamic mode"; "min overlap (64 slots)"; "median slots"; "complete"; "budget ratio" ]
  in
  List.iter
    (fun mode ->
      let armed_probe =
        Adversary_lab.arm ~mode ~topology:Topology.Shared_core ~spec ~source:0
          ~rng:(Rng.create 2401)
      in
      let min_overlap = ref max_int in
      for slot = 0 to 63 do
        let a = Dynamic.at armed_probe.Adversary_lab.availability slot in
        min_overlap := min !min_overlap (Assignment.min_pairwise_overlap a)
      done;
      let r = point (dynamic mode) in
      let median = median r and complete = r.Run.completed in
      Table.add_row ta
        [
          Adversary_lab.mode_name mode;
          string_of_int !min_overlap;
          fmt_f median;
          Printf.sprintf "%d/%d" complete trials_a;
          (if complete = 0 then "inf" else fmt_f2 (median /. float_of_int budget));
        ])
    Adversary_lab.all_modes;
  print_table ~title:"COGCAST on shared-core, per-slot reassignment" ta;
  reproduce ~vary:[ ("--dynamic", "MODE") ] (dynamic Adversary_lab.Rotating);
  note "claim (Thm 4 under §7 dynamics): rotating/reshuffle keep pairwise overlap";
  note ">= k in every slot and COGCAST completes within the same O((c/k) lg n)";
  note "budget; the Thm 17 isolate conspiracy defeats any budget (contrast row)";

  (* ---- Part B: Theorem 18 — jammer budget sweep on the uniform spectrum ---- *)
  let n = if !quick then 24 else 48 in
  let c = 12 in
  (* Everyone owns the whole spectrum: the §7 n-uniform jamming model. *)
  let spec = { Topology.n; c; k = c } in
  let trials_b = trials ~full:60 in
  let plain = Registry.find_exn "cogcast" in
  let resist = Registry.find_exn "jam_resist:cogcast" in
  let budgets = if !quick then [ 0; 2; 4; 5 ] else [ 0; 1; 2; 3; 4; 5 ] in
  let jammed proto t =
    Run.spec ~topology:Topology.Identical ~jam_budget:t ~trials:trials_b
      ~seed:(24_200 + t) proto spec
  in
  let tb =
    Table.create
      [ "t (jammed/node/slot)"; "protocol"; "median slots"; "complete"; "slot inflation" ]
  in
  let monotone = ref true in
  let resist_inflation = ref 0.0 in
  List.iter
    (fun proto ->
      let is_resist = proto != plain in
      let base = ref None in
      let prev = ref 0.0 in
      List.iter
        (fun t ->
          let r = point (jammed proto t) in
          let median = median r and complete = r.Run.completed in
          if !base = None then base := Some median;
          (* The plain protocol's degradation must be monotone in the
             adversary's budget, up to median jitter on small samples; the
             transform's curve is flat by design, so it is held to a
             bounded-inflation claim instead. *)
          if (not is_resist) && median < !prev *. 0.85 then monotone := false;
          prev := max !prev median;
          let ratio =
            match !base with
            | Some b when b > 0.0 -> median /. b
            | _ -> Float.nan
          in
          if is_resist then resist_inflation := max !resist_inflation ratio;
          let inflation = fmt_f2 ratio in
          Table.add_row tb
            [
              string_of_int t;
              Protocol.name proto;
              fmt_f median;
              Printf.sprintf "%d/%d" complete trials_b;
              inflation;
            ])
        budgets)
    [ plain; resist ];
  print_table ~title:"n-uniform jammer sweep, identical spectrum (C = 12, t < C/2)" tb;
  reproduce
    ~vary:[ ("-p", "PROTOCOL"); ("--jam-budget", "T"); ("--seed", "24200+T") ]
    (jammed plain 1);
  note "claim (Thm 18): the jam_resist: transform runs the protocol unmodified on";
  note "the sensed unjammed spectrum (>= C-t channels, overlap >= C-2t) and keeps";
  note "completing for every legal t at a constant-factor cost, while the plain";
  note "protocol's curve degrades monotonically with the budget";
  note "%s"
    (if !monotone then
       "plain-protocol monotonicity: PASS (medians non-decreasing in t, 15% \
        tolerance)"
     else
       "plain-protocol monotonicity: FAIL — a higher budget ran faster than \
        a lower one");
  note
    "jam_resist worst-case slot inflation over all t: %.2fx the unjammed \
     run (Thm 18: a constant factor)"
    !resist_inflation;

  (* ---- Part C: composed adversaries, invariant-checked ---- *)
  let n = if !quick then 24 else 48 in
  let c = 8 and k = 3 in
  let spec = { Topology.n; c; k } in
  let trials_c = trials ~full:30 in
  let jam = Result.get_ok (Run.parse_faults "jam") in
  let composed mode name =
    Run.spec ~topology:Topology.Shared_core ~dynamic:mode ~faults:jam ~check:true
      ~trials:trials_c ~seed:24_300 (Registry.find_exn name) spec
  in
  let tc =
    Table.create [ "dynamic mode"; "protocol"; "median slots"; "complete"; "violations" ]
  in
  let total_violations = ref 0 in
  List.iter
    (fun mode ->
      List.iter
        (fun name ->
          let r = point (composed mode name) in
          let violations =
            List.fold_left (fun acc f -> acc + List.length f.Run.violations) 0 r.Run.failures
          in
          total_violations := !total_violations + violations;
          Table.add_row tc
            [
              Adversary_lab.mode_name mode;
              name;
              fmt_f (median r);
              Printf.sprintf "%d/%d" r.Run.completed trials_c;
              string_of_int violations;
            ])
        [ "cogcast"; "gossip" ])
    [ Adversary_lab.Static; Adversary_lab.Rotating; Adversary_lab.Reshuffle ];
  print_table ~title:"reactive jammer composed with per-slot reassignment" tc;
  reproduce ~vary:[ ("-p", "PROTOCOL"); ("--dynamic", "MODE") ]
    (composed Adversary_lab.Rotating "cogcast");
  note "claim (robustness contract): composed adversaries may slow protocols but";
  note "every trial's trace passes the invariant checkers — %d violation(s) total"
    !total_violations
