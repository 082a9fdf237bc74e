(* TV-whitespace spectrum sensing: the motivating scenario from the paper's
   introduction. Secondary users (sensors) opportunistically use channels
   left free by licensed primary users (TV broadcasters). Different sensors
   see different free-channel sets depending on which transmitters are in
   range; a regulator-mandated gateway must aggregate the worst interference
   reading before the network may keep transmitting.

   This example builds the availability sets from a primary-user occupancy
   model, verifies the pairwise-overlap assumption, and runs COGCOMP with
   the max monoid to pull the worst reading to the gateway.

   Run with:  dune exec examples/whitespace_sensing.exe *)

module Rng = Crn_prng.Rng
module Assignment = Crn_channel.Assignment
module Cogcomp = Crn_core.Cogcomp
module Aggregate = Crn_core.Aggregate

(* Spectrum model: [big_c] TV channels; each of [towers] primary
   transmitters occupies one channel in a geographic cell. A sensor in cells
   (x, y) loses the channels of all towers within range. Sensors near each
   other lose similar channels, which produces the clustered, correlated
   availability the paper's model abstracts. *)

let big_c = 40
let grid = 8 (* sensors on an 8x4 grid *)
let n = 32
let num_towers = 24

type tower = { channel : int; tx : float; ty : float; range : float }

let build_towers rng =
  Array.init num_towers (fun _ ->
      {
        channel = Rng.int rng big_c;
        tx = Rng.float rng 8.0;
        ty = Rng.float rng 4.0;
        range = 1.0 +. Rng.float rng 1.5;
      })

let sensor_position i = (float_of_int (i mod grid), float_of_int (i / grid))

let free_channels towers i =
  let x, y = sensor_position i in
  let blocked = Array.make big_c false in
  Array.iter
    (fun t ->
      let d = sqrt (((t.tx -. x) ** 2.0) +. ((t.ty -. y) ** 2.0)) in
      if d <= t.range then blocked.(t.channel) <- true)
    towers;
  List.filter (fun ch -> not blocked.(ch)) (List.init big_c (fun ch -> ch))

let () =
  let rng = Rng.create 99 in
  let towers = build_towers rng in
  (* Every sensor keeps its c cheapest free channels, c = the minimum free
     count so that all rows have equal width (the model's uniform c). *)
  let free = Array.init n (free_channels towers) in
  let c = Array.fold_left (fun acc l -> min acc (List.length l)) big_c free in
  let rows =
    Array.map
      (fun l ->
        let row = Array.of_list (List.filteri (fun i _ -> i < c) l) in
        Rng.shuffle rng row;  (* local labels are arbitrary *)
        row)
      free
  in
  let assignment = Assignment.create ~num_channels:big_c ~local_to_global:rows in
  let k = Assignment.min_pairwise_overlap assignment in
  Printf.printf "whitespace spectrum: C=%d channels, %d towers, %d sensors\n" big_c
    num_towers n;
  Printf.printf "availability: c=%d free channels per sensor, min pairwise overlap k=%d\n"
    c k;
  if k = 0 then begin
    Printf.printf "no guaranteed overlap — the model's k >= 1 assumption fails; \
                   re-plan the deployment\n";
    exit 1
  end;
  (* Interference readings in dB (synthetic): distance-weighted noise. *)
  let readings =
    Array.init n (fun i ->
        let x, y = sensor_position i in
        int_of_float (30.0 +. (10.0 *. sin (x +. y)) +. Rng.float rng 25.0))
  in
  let res =
    Cogcomp.run ~monoid:Aggregate.max_int ~values:readings ~source:0 ~assignment ~k
      ~rng ()
  in
  let true_max = Array.fold_left max readings.(0) readings in
  let worst = res.Cogcomp.root_value in
  if not res.Cogcomp.complete then begin
    Printf.eprintf "aggregation incomplete — increase the phase-1 budget\n";
    exit 1
  end
  else if worst <> true_max then begin
    Printf.eprintf "gateway got %d dB but the true max is %d dB\n" worst true_max;
    exit 1
  end
  else begin
    Printf.printf
      "gateway aggregated worst interference = %d dB (true max %d) in %d slots\n"
      worst true_max res.Cogcomp.total_slots;
    Printf.printf "  (%d mediators coordinated the per-channel drain)\n"
      (List.length res.Cogcomp.mediators)
  end
