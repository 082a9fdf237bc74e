module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Dynamic = Crn_channel.Dynamic
module Assignment = Crn_channel.Assignment
module Adversary = Crn_channel.Adversary
module Jammer = Crn_radio.Jammer
module Faults = Crn_radio.Faults
module Trace = Crn_radio.Trace
module Cogcast = Crn_core.Cogcast

(* ------------------------------------------------------------------ *)
(* Dynamic-spectrum adversaries.                                       *)
(* ------------------------------------------------------------------ *)

type dynamic_mode = Static | Rotating | Reshuffle | Isolate

let all_modes = [ Static; Rotating; Reshuffle; Isolate ]

let mode_name = function
  | Static -> "static"
  | Rotating -> "rotating"
  | Reshuffle -> "reshuffle"
  | Isolate -> "isolate"

let mode_of_string s =
  match String.lowercase_ascii s with
  | "static" -> Ok Static
  | "rotating" -> Ok Rotating
  | "reshuffle" -> Ok Reshuffle
  | "isolate" -> Ok Isolate
  | _ ->
      Error
        (Printf.sprintf "unknown dynamic mode %S (try: %s)" s
           (String.concat ", " (List.map mode_name all_modes)))

let validate ~mode ~spec =
  let { Topology.n; c; k } = spec in
  match mode with
  | Isolate when k >= c ->
      Error
        (Printf.sprintf
           "--dynamic isolate: the Theorem 17 adversary needs k < c (got \
            k=%d, c=%d); with k = c the source's whole set is shared and \
            isolation is impossible"
           k c)
  | Isolate when n < 2 -> Error "--dynamic isolate: needs at least 2 nodes"
  | _ -> Ok ()

type armed = { availability : Dynamic.t; rng : Rng.t }

let arm ~mode ~topology ~spec ~source ~rng =
  (match validate ~mode ~spec with Ok () -> () | Error m -> invalid_arg m);
  match mode with
  | Static -> { availability = Dynamic.static (Topology.generate topology rng spec); rng }
  | Rotating ->
      { availability = Dynamic.rotating (Topology.generate topology rng spec); rng }
  | Reshuffle ->
      (* The shared-core churner is the library's own construction; every
         other topology kind gets the same per-slot re-randomization via a
         slot-seeded generator, which preserves the >= k overlap invariant
         because each slot's assignment guarantees it by construction. *)
      let seed = Rng.split rng in
      let availability =
        match topology with
        | Topology.Shared_core -> Dynamic.reshuffled_shared_core ~seed spec
        | _ ->
            let base_seed = Rng.bits64 seed in
            Dynamic.of_fun ~num_nodes:spec.Topology.n
              ~channels_per_node:spec.Topology.c (fun slot ->
                let slot_seed =
                  Crn_prng.Splitmix.mix64
                    (Int64.logxor base_seed (Int64.of_int slot))
                in
                Topology.generate topology (Rng.of_int64 slot_seed) spec)
      in
      { availability; rng }
  | Isolate ->
      (* The Theorem 17 conspiracy with a genuinely leaked seed: the trial
         runs on [Rng.create leak] and the adversary's oracle replays that
         very stream, so a COGCAST source is isolated forever (E20). The
         leak is derived from the trial's own stream, keeping sweeps
         deterministic at any job count. *)
      let leak =
        Int64.to_int (Int64.logand (Rng.bits64 rng) 0x3FFF_FFFF_FFFF_FFFFL)
      in
      let { Topology.n; c; _ } = spec in
      let availability =
        Adversary.isolate_source ~spec ~source
          ~predict_source_label:(Cogcast.label_oracle ~seed:leak ~n ~c ~node:source)
      in
      { availability; rng = Rng.create leak }

(* ------------------------------------------------------------------ *)
(* Reassignment instrumentation.                                       *)
(* ------------------------------------------------------------------ *)

let instrument ~trace inner =
  let n = Dynamic.num_nodes inner in
  let c = Dynamic.channels_per_node inner in
  Dynamic.of_fun ~num_nodes:n ~channels_per_node:c (fun slot ->
      let a = Dynamic.at inner slot in
      if slot > 0 then begin
        let prev = Dynamic.at inner (slot - 1) in
        let changed = ref 0 in
        for node = 0 to n - 1 do
          let differs = ref false in
          for label = 0 to c - 1 do
            if
              Assignment.global_of_local a ~node ~label
              <> Assignment.global_of_local prev ~node ~label
            then differs := true
          done;
          if !differs then incr changed
        done;
        if !changed > 0 then
          Trace.record trace (Trace.Reassigned { slot; nodes_changed = !changed })
      end;
      a)

(* ------------------------------------------------------------------ *)
(* Fault/jammer adversaries (the chaos families).                      *)
(* ------------------------------------------------------------------ *)

type fault_kind = Naps | Churn | Crash | Jam

let all_fault_kinds = [ Naps; Churn; Crash; Jam ]

let fault_kind_name = function
  | Naps -> "naps"
  | Churn -> "churn"
  | Crash -> "crash"
  | Jam -> "jam"

let fault_kind_of_string s =
  match String.lowercase_ascii s with
  | "naps" -> Ok Naps
  | "churn" -> Ok Churn
  | "crash" -> Ok Crash
  | "jam" -> Ok Jam
  | _ ->
      Error
        (Printf.sprintf "fault kind must be one of %s (got %S)"
           (String.concat ", " (List.map fault_kind_name all_fault_kinds))
           s)

(* [rate] is the stationary per-slot down probability (naps, churn), the
   fraction of crashed nodes (crash), or just on/off for the reactive
   jammer (jam). The source is always spared — a dead source measures
   nothing. Reactive jammers are stateful: one fresh instance per call,
   never shared across trials. *)
let adversary_for ~kind ~rate ~n ~fault_seed =
  if rate <= 0.0 then (None, None)
  else
    match kind with
    | Naps ->
        ( Some (Faults.spare (Faults.random_naps ~seed:fault_seed ~rate) ~node:0),
          None )
    | Churn ->
        let mean_down = 8.0 in
        let mean_up = mean_down *. (1.0 -. rate) /. rate in
        ( Some
            (Faults.spare
               (Faults.bernoulli_churn ~seed:fault_seed ~mean_up ~mean_down)
               ~node:0),
          None )
    | Crash ->
        let crashed = max 1 (int_of_float (Float.round (rate *. float_of_int n))) in
        let rec build i acc =
          if i > crashed then acc
          else
            build (i + 1)
              (Faults.union acc (Faults.crash ~node:(i mod n) ~from_slot:(2 * i)))
        in
        if n < 2 then (None, None)
        else (Some (Faults.spare (build 1 Faults.none) ~node:0), None)
    | Jam -> (None, Some (Jammer.reactive ()))

(* ------------------------------------------------------------------ *)
(* One checked trial.                                                  *)
(* ------------------------------------------------------------------ *)

type trial = {
  summary : Protocol.summary;
  violations : Trace.Check.violation list;
  trace_jsonl : string option;
}

let run_trial ?(checker = Trace.Check.all) proto make_env =
  let trace = Trace.create () in
  let summary = Protocol.run proto (make_env ~trace) in
  let violations = checker trace in
  let trace_jsonl =
    if violations = [] then None else Some (Trace.to_jsonl trace)
  in
  { summary; violations; trace_jsonl }
