(* E23: sustained-traffic workloads (lib/workload) under the open-loop load
   generator — offered rate vs achieved goodput, delivery latency
   percentiles, and the saturation point where the network stops keeping up
   with the arrival process. Gossip carries the headline sweep; push-sum is
   profiled at two rates with its mass accounting surfaced. *)

open Bench_util
module Topology = Crn_channel.Topology
module Protocol = Crn_proto.Protocol
module Registry = Crn_proto.Registry

(* One loaded point, as `crn_sim run -p NAME --rate R --arrivals poisson
   --rumors K`: rumor arrivals are drawn inside the registry's init from
   each trial's stream — identical tables at any --jobs. *)
let loaded name ~spec ~trials ~seed ~rate ~rumors =
  Run.spec
    ~load:{ Protocol.rate; arrivals = Protocol.Poisson; rumors }
    ~trials ~seed (Registry.find_exn name) spec

(* A percentile of a point's pooled latencies, nan without samples. *)
let latency r p =
  match r.Run.latencies with
  | Some l when Array.length l > 0 -> Summary.percentile l p
  | _ -> Float.nan

let e23 () =
  header "E23" "Sustained traffic: open-loop load on gossip and push-sum";
  let spec =
    if !quick then { Topology.n = 16; c = 6; k = 2 }
    else { Topology.n = 32; c = 8; k = 3 }
  in
  let rumors = if !quick then 8 else 24 in
  (* Full coverage of one rumor costs O(n) wins, so capacity at these
     topologies sits near a few hundredths of a rumor per slot — the sweep
     brackets it from well below to well above. *)
  let rates =
    if !quick then [ 0.02; 0.05 ] else [ 0.01; 0.02; 0.03; 0.05; 0.1; 0.2 ]
  in
  let trials = trials ~full:5 in
  let t =
    Table.create
      [
        "offered (rumors/slot)";
        "completion";
        "goodput (rumors/slot)";
        "lat p50";
        "lat p95";
        "lat p99";
      ]
  in
  (* Saturation: the last offered rate the network still clears — every
     rumor finishes and goodput tracks the arrival rate. *)
  let saturation = ref None in
  let gossip rate =
    loaded "gossip" ~spec ~trials ~seed:(23_000 + int_of_float (rate *. 1_000.)) ~rate
      ~rumors
  in
  List.iter
    (fun rate ->
      let r = point (gossip rate) in
      let completion = float_of_int r.Run.completed /. float_of_int trials in
      let goodput =
        mean_over r (fun s ->
            detail "completed_rumors" s /. float_of_int s.Protocol.slots_run)
      in
      (* Goodput includes the drain tail after the last arrival, so even a
         network that keeps up perfectly reads a little under the offered
         rate; 70% separates "bounded drain" from "serialized backlog". *)
      if completion >= 0.999 && goodput >= 0.7 *. rate then saturation := Some rate;
      Table.add_row t
        [
          fmt_f2 rate;
          fmt_f2 completion;
          Printf.sprintf "%.3f" goodput;
          fmt_f (latency r 50.0);
          fmt_f (latency r 95.0);
          fmt_f (latency r 99.0);
        ])
    rates;
  print_table ~title:(Printf.sprintf "gossip, n=%d c=%d k=%d, %d rumors (Poisson)"
                        spec.Topology.n spec.Topology.c spec.Topology.k rumors) t;
  reproduce ~vary:[ ("--rate", "R"); ("--seed", "23000+1000R") ] (gossip (List.hd rates));
  (match !saturation with
  | Some r ->
      note "saturation point: %.2f rumors/slot — the highest offered rate with" r;
      note "full completion and goodput >= 70%% of offered; beyond it the epidemic";
      note "serializes on the one-winner channel and latency tails blow up."
  | None ->
      note "saturation point below the lowest swept rate: the channel cannot";
      note "clear even the lightest offered load at this topology.");
  (* Push-sum under the same generator: conservation accounting plus the
     settling latency of the running estimate. *)
  let t2 =
    Table.create
      [ "offered"; "completion"; "transfers/slot"; "lost mass"; "max drift"; "lat p95" ]
  in
  let ps_rates = if !quick then [ 0.1 ] else [ 0.05; 0.15 ] in
  let push_sum rate =
    loaded "push_sum" ~spec ~trials ~seed:(23_500 + int_of_float (rate *. 1_000.)) ~rate
      ~rumors:(max 2 (rumors / 4))
  in
  List.iter
    (fun rate ->
      let r = point (push_sum rate) in
      Table.add_row t2
        [
          fmt_f2 rate;
          fmt_f2 (float_of_int r.Run.completed /. float_of_int trials);
          Printf.sprintf "%.3f" (mean_over r (detail "transfer_rate"));
          Printf.sprintf "%.2e" (mean_over r (detail "lost_mass"));
          Printf.sprintf "%.2e" (mean_over r (detail "max_drift"));
          fmt_f (latency r 95.0);
        ])
    ps_rates;
  print_table ~title:"push-sum under load (fault-free)" t2;
  reproduce ~vary:[ ("--rate", "R"); ("--seed", "23500+1000R") ] (push_sum (List.hd ps_rates));
  note "lost mass is exactly 0 fault-free and max drift is float noise: every";
  note "debit (Won) pairs with a fold (Heard) inside one engine slot."
