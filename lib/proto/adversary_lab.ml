module Rng = Crn_prng.Rng
module Topology = Crn_channel.Topology
module Dynamic = Crn_channel.Dynamic
module Assignment = Crn_channel.Assignment
module Adversary = Crn_channel.Adversary
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
