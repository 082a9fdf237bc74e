module H = Perfbench_helpers

let feq = Alcotest.float 1e-12

let test_median () =
  Alcotest.check feq "odd" 2.0 (H.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check feq "even" 2.5 (H.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Perfbench_helpers.median: empty sample")
    (fun () -> ignore (H.median [||]))

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  Alcotest.check feq "p90 of 1..100" 90.0 (H.percentile (ramp 100) 90.0);
  Alcotest.check feq "p50 of 1..5" 3.0 (H.percentile (ramp 5) 50.0);
  Alcotest.check feq "p100 is the max" 7.0 (H.percentile (ramp 7) 100.0)

let test_tail_rule () =
  let tail n = H.tail_percentile (ramp n) in
  let some = Alcotest.(option (pair feq feq)) in
  (* 100 samples: exactly 10 beyond p90, 1 beyond p99. *)
  Alcotest.check some "100 -> p90" (Some (90.0, 90.0)) (tail 100);
  (* 99 samples: p90 has only 9 beyond it, so fall back to the median. *)
  Alcotest.check some "99 -> p50" (Some (50.0, 50.0)) (tail 99);
  Alcotest.check some "1000 -> p99" (Some (99.0, 990.0)) (tail 1000);
  Alcotest.check some "10000 -> p99.9" (Some (99.9, 9990.0)) (tail 10000);
  Alcotest.check some "20 -> p50" (Some (50.0, 10.0)) (tail 20);
  Alcotest.check some "19 -> none" None (tail 19);
  Alcotest.(check int) "beyond p90 of 100" 10 (H.beyond ~count:100 90.0)

let test_names () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (H.valid_name s))
    [ "wall_s"; "prng.draw_ns"; "soa.slot_ms_p90"; "9lives"; "a-b"; String.make 64 'x' ];
  List.iter
    (fun s -> Alcotest.(check bool) s false (H.valid_name s))
    [ ""; "_lead"; ".lead"; "-lead"; "has space"; "slash/no"; "uni\xc3\xa9"; String.make 65 'x' ];
  List.iter
    (fun s -> Alcotest.(check bool) s true (H.valid_unit s))
    [ "s"; "ms"; "1/s"; "%"; "count"; "words" ];
  List.iter
    (fun s -> Alcotest.(check bool) s false (H.valid_unit s))
    [ ""; "m s"; String.make 17 'u' ]

let test_failed_frac () =
  let t = H.tally () in
  Alcotest.check feq "nothing attempted" 0.0 (H.failed_frac t);
  List.iter (H.check t) [ true; false; true; true ];
  Alcotest.(check int) "attempted" 4 t.H.attempted;
  Alcotest.(check int) "failed" 1 t.H.failed;
  Alcotest.check feq "frac" 0.25 (H.failed_frac t)

let child ?busy start stop =
  { H.start; stop; busy = Option.value busy ~default:(stop -. start) }

let test_self_time () =
  let self = H.self_time ~start:0.0 ~stop:10.0 in
  Alcotest.check feq "no children" 10.0 (self []);
  Alcotest.check feq "disjoint" 5.0 (self [ child 1.0 3.0; child 5.0 8.0 ]);
  (* Two shards running at once cover their union, not their sum. *)
  Alcotest.check feq "parallel overlap" 6.0 (self [ child 2.0 5.0; child 3.0 6.0 ]);
  Alcotest.check feq "nested" 7.0 (self [ child 2.0 5.0; child 3.0 4.0 ]);
  (* Coalesced back-to-back calls count their busy time, not their hull. *)
  Alcotest.check feq "coalesced" 8.0 (self [ child ~busy:2.0 1.0 9.0 ]);
  Alcotest.check feq "clipped to the parent" 7.0 (self [ child (-2.0) 1.0; child 8.0 12.0 ]);
  Alcotest.check feq "outside" 10.0 (self [ child 11.0 12.0 ])

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "failed_frac accounting" `Quick test_failed_frac;
          Alcotest.test_case "span self time" `Quick test_self_time;
        ] );
    ]
