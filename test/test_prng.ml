(* Tests for the deterministic PRNG stack: SplitMix64, Xoshiro256** and the
   Rng distribution layer. *)

module Splitmix = Crn_prng.Splitmix
module Xoshiro = Crn_prng.Xoshiro
module Rng = Crn_prng.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- SplitMix64 ------------------------------------------------------ *)

let test_splitmix_reference () =
  (* Reference outputs for seed 0 from the canonical C implementation
     (Steele/Lea/Flood; also used by Java's SplittableRandom). *)
  let sm = Splitmix.create 0L in
  let expected =
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]
  in
  List.iter
    (fun e -> Alcotest.(check int64) "splitmix64(seed=0) stream" e (Splitmix.next sm))
    expected

let test_splitmix_determinism () =
  let a = Splitmix.create 12345L and b = Splitmix.create 12345L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_splitmix_copy () =
  let a = Splitmix.create 7L in
  ignore (Splitmix.next a);
  let b = Splitmix.copy a in
  Alcotest.(check int64) "copy replays" (Splitmix.next a) (Splitmix.next b)

let test_splitmix_split_independent () =
  let a = Splitmix.create 7L in
  let b = Splitmix.split a in
  let xs = Array.init 32 (fun _ -> Splitmix.next a) in
  let ys = Array.init 32 (fun _ -> Splitmix.next b) in
  check "split streams differ" true (xs <> ys)

(* --- Xoshiro256** ----------------------------------------------------- *)

let test_xoshiro_determinism () =
  let a = Xoshiro.create 99L and b = Xoshiro.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed same stream" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_xoshiro_copy () =
  let a = Xoshiro.create 5L in
  for _ = 1 to 10 do ignore (Xoshiro.next a) done;
  let b = Xoshiro.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy replays" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_xoshiro_jump_disjoint () =
  (* After a jump the stream should not collide with the original prefix. *)
  let a = Xoshiro.create 3L in
  let prefix = Array.init 1000 (fun _ -> Xoshiro.next a) in
  let b = Xoshiro.create 3L in
  Xoshiro.jump b;
  let jumped = Array.init 1000 (fun _ -> Xoshiro.next b) in
  let seen = Hashtbl.create 2048 in
  Array.iter (fun x -> Hashtbl.replace seen x ()) prefix;
  let collisions =
    Array.fold_left (fun acc x -> if Hashtbl.mem seen x then acc + 1 else acc) 0 jumped
  in
  check_int "no collisions between jumped substreams" 0 collisions

(* --- Rng -------------------------------------------------------------- *)

let test_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  (* Coarse chi-square-style check: each of 8 buckets should get close to
     12.5% of 80k draws. *)
  let rng = Rng.create 42 in
  let buckets = Array.make 8 0 in
  let draws = 80_000 in
  for _ = 1 to draws do
    let v = Rng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i count ->
      let frac = float_of_int count /. float_of_int draws in
      if frac < 0.115 || frac > 0.135 then
        Alcotest.failf "bucket %d has fraction %.4f (expected ~0.125)" i frac)
    buckets

let test_int_in () =
  let rng = Rng.create 3 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-5) 5 in
    check "in inclusive range" true (v >= -5 && v <= 5)
  done

let test_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    check "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bernoulli_frequency () =
  let rng = Rng.create 5 in
  let hits = ref 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int draws in
  check "p=0.3 frequency" true (frac > 0.28 && frac < 0.32)

let test_geometric_mean () =
  (* E[geometric(p)] = 1/p. *)
  let rng = Rng.create 6 in
  let total = ref 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    total := !total + Rng.geometric rng 0.25
  done;
  let mean = float_of_int !total /. float_of_int draws in
  check "mean close to 4" true (mean > 3.8 && mean < 4.2)

let test_geometric_p1 () =
  let rng = Rng.create 6 in
  for _ = 1 to 100 do
    check_int "p=1 is always 1" 1 (Rng.geometric rng 1.0)
  done

let test_shuffle_is_permutation () =
  let rng = Rng.create 7 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle preserves multiset" (Array.init 100 (fun i -> i)) sorted

let test_permutation_valid () =
  let rng = Rng.create 8 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation of 0..49" (Array.init 50 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let rng = Rng.create 9 in
  for _ = 1 to 100 do
    let s = Rng.sample_without_replacement rng 20 1000 in
    check_int "20 samples" 20 (Array.length s);
    let tbl = Hashtbl.create 32 in
    Array.iter
      (fun v ->
        check "in range" true (v >= 0 && v < 1000);
        check "distinct" false (Hashtbl.mem tbl v);
        Hashtbl.replace tbl v ())
      s
  done

let test_sample_full () =
  let rng = Rng.create 10 in
  let s = Rng.sample_without_replacement rng 10 10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "m = n is a permutation" (Array.init 10 (fun i -> i)) sorted

let test_sample_uniform_marginal () =
  (* Each element of [0, 10) should appear in a 3-sample with probability
     3/10. *)
  let rng = Rng.create 11 in
  let counts = Array.make 10 0 in
  let trials = 30_000 in
  for _ = 1 to trials do
    Array.iter (fun v -> counts.(v) <- counts.(v) + 1)
      (Rng.sample_without_replacement rng 3 10)
  done;
  Array.iteri
    (fun i count ->
      let frac = float_of_int count /. float_of_int trials in
      if frac < 0.28 || frac > 0.32 then
        Alcotest.failf "element %d sampled with frequency %.4f (expected 0.30)" i frac)
    counts

let test_split_determinism () =
  let a = Rng.create 33 and b = Rng.create 33 in
  let a1 = Rng.split a and b1 = Rng.split b in
  for _ = 1 to 50 do
    Alcotest.(check int64) "split is deterministic" (Rng.bits64 a1) (Rng.bits64 b1)
  done

let test_split_n () =
  let rng = Rng.create 34 in
  let children = Rng.split_n rng 8 in
  check_int "8 children" 8 (Array.length children);
  (* Children streams should differ pairwise on their first output. *)
  let firsts = Array.map Rng.bits64 children in
  let tbl = Hashtbl.create 8 in
  Array.iter (fun v -> Hashtbl.replace tbl v ()) firsts;
  check_int "distinct first outputs" 8 (Hashtbl.length tbl)

let test_pick () =
  let rng = Rng.create 35 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng a in
    check "picked element" true (v = 10 || v = 20 || v = 30)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

(* --- known answers ---------------------------------------------------- *)

(* Pinned outputs. Every golden summary and trace of the simulator descends
   from these streams, so any change to how the generators keep or step their
   state must reproduce them bit for bit. *)

let hex64 l = List.map (Printf.sprintf "%016Lx") l

let check_hex64 msg expected actual =
  Alcotest.(check (list string)) msg (hex64 expected) (hex64 actual)

let draws n f = List.init n (fun _ -> f ())

let test_xoshiro_known_answers () =
  let x = Xoshiro.create 99L in
  let outs = draws 1000 (fun () -> Xoshiro.next x) in
  check_hex64 "first four"
    [ 0x5944A7EB55C8EAB4L; 0x90624E3D31D8867EL; 0x60D2AB602A4215C3L; 0xDB0A7025776175DCL ]
    (List.filteri (fun i _ -> i < 4) outs);
  check_hex64 "1000th" [ 0x53C17F5D20F71437L ] [ List.nth outs 999 ];
  Alcotest.(check string) "digest of the first 1000"
    "e5f0425117d75a447c1f0eb8c24adbb9"
    (Digest.to_hex (Digest.string (String.concat "" (hex64 outs))));
  let x = Xoshiro.create 99L in
  Xoshiro.jump x;
  check_hex64 "after jump"
    [ 0xB193D099972F6EAAL; 0xB85A11383FF56DD2L; 0xC1DEF13336C81E0AL ]
    (draws 3 (fun () -> Xoshiro.next x))

let test_xoshiro_native_draws () =
  (* The native-int draws are bit fields of the same step as [next]. *)
  let a = Xoshiro.create 7L and b = Xoshiro.create 7L and c = Xoshiro.create 7L in
  for _ = 1 to 1000 do
    let v = Xoshiro.next a in
    check_int "low 62 bits" (Int64.to_int v land max_int) (Xoshiro.next_bits62 b);
    check_int "top 53 bits" (Int64.to_int (Int64.shift_right_logical v 11)) (Xoshiro.next_bits53 c)
  done

let test_splitmix_split_known_answer () =
  let sm = Splitmix.create 0L in
  let child = Splitmix.split sm in
  check_hex64 "child" [ 0x568A9B0B1A2C05ECL; 0x44E5B8B147EF718BL ]
    (draws 2 (fun () -> Splitmix.next child));
  check_hex64 "parent after split" [ 0x6E789E6AA1B965F4L ] [ Splitmix.next sm ]

let test_rng_known_streams () =
  let fresh () = Rng.create 1 in
  let r = fresh () in
  check_hex64 "bits64"
    [ 0x83EAB6BE6E8AAE58L; 0xE366FB2A7C136F3BL; 0xB402C3AD0DA32690L; 0x5BBBCBE118C2BF1AL ]
    (draws 4 (fun () -> Rng.bits64 r));
  let r = fresh () in
  Alcotest.(check (list int)) "int 1000"
    [ 144; 323; 560; 162; 461; 501; 775; 492; 34; 277; 479; 741; 237; 140; 400; 487 ]
    (draws 16 (fun () -> Rng.int r 1000));
  (* A bound just above 2^61 rejects about half the draws. *)
  let r = fresh () in
  Alcotest.(check (list int)) "int 2^61+1"
    [ 282238855678701144; 1998415027312443162; 350747013379780501; 2272204564902088775;
      790156082538706034; 2199889549360203140; 628919682652362487; 158488588697597139 ]
    (draws 8 (fun () -> Rng.int r ((1 lsl 61) + 1)));
  let r = fresh () in
  Alcotest.(check (list int)) "int_in -5..5" [ -2; -4; 0; 0; -1; -5; -3; -4 ]
    (draws 8 (fun () -> Rng.int_in r (-5) 5));
  let r = fresh () in
  check_hex64 "float bits"
    [ 0x3FE07D56D7CDD155L; 0x3FEC6CDF654F826DL; 0x3FE6805875A1B464L;
      0x3FD6EEF2F84630AEL; 0x3FCA4AA940EE3B78L; 0x3FD13786A338A1FAL ]
    (draws 6 (fun () -> Int64.bits_of_float (Rng.float r 1.0)));
  let coins f = String.concat "" (draws 64 (fun () -> if f () then "1" else "0")) in
  let r = fresh () in
  Alcotest.(check string) "bool"
    "0100111001111001101110000101001111011111101010100000101100001100"
    (coins (fun () -> Rng.bool r));
  let r = fresh () in
  Alcotest.(check string) "bernoulli 0.3"
    "0000111010100000000000010100100000101000000100000000101000100000"
    (coins (fun () -> Rng.bernoulli r 0.3));
  let r = fresh () in
  Alcotest.(check (list int)) "geometric 0.25" [ 3; 8; 5; 2; 1; 2; 1; 11 ]
    (draws 8 (fun () -> Rng.geometric r 0.25));
  Alcotest.(check (array int)) "permutation 12"
    [| 8; 6; 3; 4; 2; 7; 10; 5; 9; 11; 1; 0 |]
    (Rng.permutation (fresh ()) 12)

let test_split_known_answers () =
  (* A child's splitting state is drawn before its Xoshiro words; drawing
     them in the other order changes every child's stream. *)
  let r = Rng.create 1 in
  let c1 = Rng.split r in
  let c2 = Rng.split r in
  check_hex64 "first child"
    [ 0x5042408FAE5212BBL; 0xA2297530A5438F58L; 0x7D6053C74F0431FCL ]
    (draws 3 (fun () -> Rng.bits64 c1));
  check_hex64 "second child"
    [ 0x5483EF9266EAC3CAL; 0xCA8CF118B36B5D3FL; 0x3E2740E4F1BF4E63L ]
    (draws 3 (fun () -> Rng.bits64 c2));
  check_hex64 "splitting leaves the parent's draws alone" [ 0x83EAB6BE6E8AAE58L ]
    [ Rng.bits64 r ];
  check_hex64 "grandchild" [ 0x6CD2F5AD3CFAE57AL ]
    [ Rng.bits64 (Rng.split (Rng.split (Rng.create 1))) ];
  let r = Rng.create 1 in
  check_hex64 "split_n first draws"
    [ 0x5042408FAE5212BBL; 0x5483EF9266EAC3CAL; 0xB7B2F438EE474646L; 0xE42A1BEAEF316F81L ]
    (Array.to_list (Array.map Rng.bits64 (Rng.split_n r 4)));
  check_hex64 "split_n leaves the parent's draws alone" [ 0x83EAB6BE6E8AAE58L ] [ Rng.bits64 r ]

let test_sample_known_answers () =
  List.iter
    (fun (m, n, expected, next) ->
      let r = Rng.create 1 in
      Alcotest.(check (array int)) (Printf.sprintf "sample %d of %d" m n) expected
        (Rng.sample_without_replacement r m n);
      check_hex64 (Printf.sprintf "draw after sample %d of %d" m n) [ next ] [ Rng.bits64 r ])
    [
      (12, 60, [| 24; 20; 54; 2; 41; 16; 59; 48; 42; 14; 39; 4 |], 0xF3089C43C6886465L);
      (3, 10, [| 4; 3; 2 |], 0x5BBBCBE118C2BF1AL);
      ( 20, 1000,
        [| 144; 930; 264; 735; 785; 51; 237; 44; 378; 828; 909; 561; 37; 915; 108; 367; 307;
           325; 847; 509 |],
        0xC36409385E6AF2A7L );
      (10, 10, [| 4; 3; 2; 6; 5; 1; 9; 8; 7; 0 |], 0x27D2F2F34161D0D7L);
    ]

let test_arena_known_answers () =
  (* The arena is split_n's children in one buffer: every node's draws, at
     any bound and interleaved with coins, match its child's, and the parent
     is left where split_n leaves it. *)
  let n = 1000 in
  let parent_a = Rng.create 5 and parent_s = Rng.create 5 in
  let arena = Rng.Arena.split_n parent_a n in
  let children = Rng.split_n parent_s n in
  let bounds = [ 1; 2; 3; 7; 16; 64; 1000; 1 lsl 40; max_int ] in
  for round = 1 to 3 do
    for v = 0 to n - 1 do
      List.iter
        (fun bound ->
          let expected = Rng.int children.(v) bound in
          let got = Rng.Arena.int arena v bound in
          if got <> expected then
            Alcotest.failf "round %d node %d bound %d: arena %d, split_n %d" round v bound got
              expected)
        bounds;
      if Rng.Arena.bool arena v <> Rng.bool children.(v) then
        Alcotest.failf "round %d node %d: bool differs" round v
    done
  done;
  check_hex64 "parent's next draw" [ Rng.bits64 parent_s ] [ Rng.bits64 parent_a ];
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Xoshiro: state index out of range") (fun () ->
      ignore (Rng.Arena.int arena n 4));
  Alcotest.check_raises "empty arena has no node 0"
    (Invalid_argument "Xoshiro: state index out of range") (fun () ->
      ignore (Rng.Arena.int (Rng.Arena.split_n (Rng.create 5) 0) 0 4));
  Alcotest.check_raises "negative node"
    (Invalid_argument "Xoshiro: state index out of range") (fun () ->
      ignore (Rng.Arena.bool arena (-1)));
  Alcotest.check_raises "bound"
    (Invalid_argument "Rng.Arena.int: bound must be positive") (fun () ->
      ignore (Rng.Arena.int arena 0 0))

let test_sampler_reuse () =
  (* One sampler reused across samples, over small and large ranges, gives
     what fresh samples give from the same stream. *)
  let r1 = Rng.create 9 and r2 = Rng.create 9 in
  let s = Rng.sampler 16 in
  let dst = Array.make 20 (-1) in
  List.iter
    (fun (m, n) ->
      Rng.sample_into r1 s m n dst 3;
      Alcotest.(check (array int)) (Printf.sprintf "sample %d of %d" m n)
        (Rng.sample_without_replacement r2 m n)
        (Array.sub dst 3 m))
    [ (12, 60); (16, 16); (5, 5000); (16, 100); (1, 1); (0, 7); (16, 1 lsl 40); (12, 60) ]

(* --- allocation ------------------------------------------------------- *)

let minor_words = Alloc.minor_words

let test_draws_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let r = Rng.create 1 and acc = ref 0 and n = 100_000 in
    let zero name f = Alcotest.(check (float 0.0)) (name ^ ": minor words") 0.0 (minor_words f) in
    zero "int" (fun () -> for _ = 1 to n do acc := !acc + Rng.int r 1000 done);
    zero "int_in" (fun () -> for _ = 1 to n do acc := !acc + Rng.int_in r 3 9 done);
    zero "bool" (fun () -> for _ = 1 to n do if Rng.bool r then incr acc done);
    zero "bernoulli" (fun () -> for _ = 1 to n do if Rng.bernoulli r 0.3 then incr acc done);
    ignore (Sys.opaque_identity !acc)
  end

(* An arena's buffer is one block outside the minor heap, so filling it
   allocates no minor words, and its draws allocate nothing. *)
let test_arena_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let r = Rng.create 1 and acc = ref 0 and n = 10_000 in
    Alcotest.(check (float 0.0)) "filling 10^4 streams: minor words" 0.0
      (minor_words (fun () -> ignore (Sys.opaque_identity (Rng.Arena.split_n r n))));
    let a = Rng.Arena.split_n r n in
    Alcotest.(check (float 0.0)) "10^5 arena int draws: minor words" 0.0
      (minor_words (fun () ->
           for i = 1 to 100_000 do
             acc := !acc + Rng.Arena.int a (i mod n) 16
           done));
    Alcotest.(check (float 0.0)) "10^5 arena bool draws: minor words" 0.0
      (minor_words (fun () ->
           for i = 1 to 100_000 do
             if Rng.Arena.bool a (i mod n) then incr acc
           done));
    ignore (Sys.opaque_identity !acc)
  end

(* A split allocates the child's two state buffers (6 + 3 words) and its
   record (3), and the throwaway splitting state it is seeded from (3). The
   four seed words go straight from [Splitmix] into the Xoshiro buffer,
   unboxed. *)
let split_words_bound = 15.0

let test_split_allocation_bound () =
  if Sys.backend_type = Sys.Native then begin
    let r = Rng.create 1 and n = 100_000 in
    let words =
      minor_words (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (Rng.split r))
          done)
    in
    let per_split = words /. float_of_int n in
    if per_split > split_words_bound then
      Alcotest.failf "Rng.split allocates %.1f words, bound %.0f" per_split split_words_bound
  end

(* --- property tests --------------------------------------------------- *)

let prop_int_in_range =
  QCheck.Test.make ~name:"Rng.int always lands in [0, bound)" ~count:500
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_permutation_bijective =
  QCheck.Test.make ~name:"Rng.permutation is a bijection" ~count:200
    QCheck.(pair small_int (int_bound 200))
    (fun (seed, n) ->
      let p = Rng.permutation (Rng.create seed) n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_without_replacement yields distinct values" ~count:200
    QCheck.(triple small_int (int_bound 50) (int_bound 200))
    (fun (seed, m, extra) ->
      let n = m + extra in
      if n = 0 then true
      else begin
        let s = Rng.sample_without_replacement (Rng.create seed) m n in
        let tbl = Hashtbl.create 16 in
        Array.for_all
          (fun v ->
            let fresh = not (Hashtbl.mem tbl v) in
            Hashtbl.replace tbl v ();
            fresh && v >= 0 && v < n)
          s
      end)

let prop_same_seed_same_stream =
  QCheck.Test.make ~name:"equal seeds give equal streams" ~count:100 QCheck.small_int
    (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 20 do
        if Rng.bits64 a <> Rng.bits64 b then ok := false
      done;
      !ok)

let () =
  Alcotest.run "crn_prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "reference stream" `Quick test_splitmix_reference;
          Alcotest.test_case "determinism" `Quick test_splitmix_determinism;
          Alcotest.test_case "copy replays" `Quick test_splitmix_copy;
          Alcotest.test_case "split independence" `Quick test_splitmix_split_independent;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "determinism" `Quick test_xoshiro_determinism;
          Alcotest.test_case "copy replays" `Quick test_xoshiro_copy;
          Alcotest.test_case "jump gives disjoint stream" `Quick test_xoshiro_jump_disjoint;
        ] );
      ( "rng",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "int_in range" `Quick test_int_in;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "bernoulli frequency" `Quick test_bernoulli_frequency;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
          Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "permutation valid" `Quick test_permutation_valid;
          Alcotest.test_case "sampling distinct" `Quick test_sample_without_replacement;
          Alcotest.test_case "sampling m=n" `Quick test_sample_full;
          Alcotest.test_case "sampling marginal uniform" `Quick test_sample_uniform_marginal;
          Alcotest.test_case "split determinism" `Quick test_split_determinism;
          Alcotest.test_case "split_n distinct" `Quick test_split_n;
          Alcotest.test_case "pick" `Quick test_pick;
        ] );
      ( "vectors",
        [
          Alcotest.test_case "xoshiro 1000 draws and jump" `Quick test_xoshiro_known_answers;
          Alcotest.test_case "xoshiro native-int draws" `Quick test_xoshiro_native_draws;
          Alcotest.test_case "splitmix split" `Quick test_splitmix_split_known_answer;
          Alcotest.test_case "rng streams from seed 1" `Quick test_rng_known_streams;
          Alcotest.test_case "split and split_n children" `Quick test_split_known_answers;
          Alcotest.test_case "sample_without_replacement" `Quick test_sample_known_answers;
          Alcotest.test_case "arena = split_n children" `Quick test_arena_known_answers;
          Alcotest.test_case "reused sampler = fresh samples" `Quick test_sampler_reuse;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
          Alcotest.test_case "split allocation bound" `Quick test_split_allocation_bound;
          Alcotest.test_case "arena fill and draws" `Quick test_arena_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_int_in_range;
            prop_permutation_bijective;
            prop_sample_distinct;
            prop_same_seed_same_stream;
          ] );
    ]
