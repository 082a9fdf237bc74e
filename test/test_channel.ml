(* Tests for the channel model: bitsets, assignments, topology generators
   and dynamic availability. *)

module Rng = Crn_prng.Rng
module Bitset = Crn_channel.Bitset
module Assignment = Crn_channel.Assignment
module Topology = Crn_channel.Topology
module Dynamic = Crn_channel.Dynamic

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Bitset ------------------------------------------------------------ *)

let test_bitset_basic () =
  let s = Bitset.create 200 in
  check "fresh empty" true (Bitset.is_empty s);
  Bitset.set s 0;
  Bitset.set s 63;
  Bitset.set s 199;
  check_int "cardinal" 3 (Bitset.cardinal s);
  check "mem 63" true (Bitset.mem s 63);
  check "not mem 64" false (Bitset.mem s 64);
  Bitset.clear s 63;
  check "cleared" false (Bitset.mem s 63);
  check_int "cardinal after clear" 2 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "set out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set s 10);
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem s (-1)))

let test_bitset_algebra () =
  let a = Bitset.of_array 100 [| 1; 2; 3; 70 |] in
  let b = Bitset.of_array 100 [| 2; 3; 4; 99 |] in
  check_int "inter_cardinal" 2 (Bitset.inter_cardinal a b);
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (Bitset.elements (Bitset.inter a b));
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 70; 99 ]
    (Bitset.elements (Bitset.union a b));
  Alcotest.(check (list int)) "diff" [ 1; 70 ] (Bitset.elements (Bitset.diff a b))

let test_bitset_iter_order () =
  let s = Bitset.of_array 300 [| 299; 0; 150; 62; 63 |] in
  Alcotest.(check (list int)) "ascending" [ 0; 62; 63; 150; 299 ] (Bitset.elements s)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> ignore (Bitset.inter_cardinal a b))

let prop_bitset_vs_reference =
  (* Compare bitset algebra against sorted-list sets. *)
  let gen = QCheck.(pair (list (int_bound 120)) (list (int_bound 120))) in
  QCheck.Test.make ~name:"bitset algebra matches reference sets" ~count:300 gen
    (fun (xs, ys) ->
      let dedup l = List.sort_uniq compare l in
      let xs = dedup xs and ys = dedup ys in
      let a = Bitset.of_array 121 (Array.of_list xs) in
      let b = Bitset.of_array 121 (Array.of_list ys) in
      let inter_ref = List.filter (fun v -> List.mem v ys) xs in
      let union_ref = dedup (xs @ ys) in
      let diff_ref = List.filter (fun v -> not (List.mem v ys)) xs in
      Bitset.elements (Bitset.inter a b) = inter_ref
      && Bitset.elements (Bitset.union a b) = union_ref
      && Bitset.elements (Bitset.diff a b) = diff_ref
      && Bitset.inter_cardinal a b = List.length inter_ref
      && Bitset.cardinal a = List.length xs)

(* --- Assignment -------------------------------------------------------- *)

let test_assignment_validation () =
  Alcotest.check_raises "duplicate channel"
    (Invalid_argument "Assignment.create: duplicate channel in a node's set") (fun () ->
      ignore (Assignment.create ~num_channels:4 ~local_to_global:[| [| 1; 1 |] |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Assignment.create: channel id out of range") (fun () ->
      ignore (Assignment.create ~num_channels:4 ~local_to_global:[| [| 1; 4 |] |]));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Assignment.create: ragged rows (nodes must have equal c)")
    (fun () ->
      ignore
        (Assignment.create ~num_channels:4 ~local_to_global:[| [| 1; 2 |]; [| 3 |] |]))

let test_assignment_accessors () =
  let a =
    Assignment.create ~num_channels:6 ~local_to_global:[| [| 4; 1; 2 |]; [| 2; 5; 0 |] |]
  in
  check_int "num_nodes" 2 (Assignment.num_nodes a);
  check_int "num_channels" 6 (Assignment.num_channels a);
  check_int "c" 3 (Assignment.channels_per_node a);
  check_int "global_of_local" 4 (Assignment.global_of_local a ~node:0 ~label:0);
  Alcotest.(check (option int)) "local_of_global hit" (Some 2)
    (Assignment.local_of_global a ~node:0 ~channel:2);
  Alcotest.(check (option int)) "local_of_global miss" None
    (Assignment.local_of_global a ~node:0 ~channel:5);
  check_int "overlap" 1 (Assignment.overlap a 0 1);
  check_int "min overlap" 1 (Assignment.min_pairwise_overlap a)

let test_relabel_preserves_sets () =
  let rng = Rng.create 1 in
  let a = Topology.shared_core rng { Topology.n = 6; c = 5; k = 2 } in
  let b = Assignment.relabel (Rng.create 99) a in
  for v = 0 to 5 do
    check "same channel set" true
      (Bitset.equal (Assignment.channel_set a ~node:v) (Assignment.channel_set b ~node:v))
  done

let test_permute_channels_preserves_overlap () =
  let rng = Rng.create 2 in
  let a = Topology.shared_plus_random rng { Topology.n = 8; c = 6; k = 2 } in
  let b = Assignment.permute_channels (Rng.create 7) a in
  for u = 0 to 7 do
    for v = u + 1 to 7 do
      check_int "overlap preserved" (Assignment.overlap a u v) (Assignment.overlap b u v)
    done
  done

(* --- Topology generators ----------------------------------------------- *)

let specs =
  [
    { Topology.n = 2; c = 3; k = 1 };
    { Topology.n = 8; c = 6; k = 2 };
    { Topology.n = 20; c = 10; k = 5 };
    { Topology.n = 5; c = 12; k = 12 };
    { Topology.n = 1; c = 4; k = 2 };
  ]

let assert_invariants kind spec a =
  let { Topology.n; c; k } = spec in
  check_int (Topology.kind_name kind ^ " nodes") n (Assignment.num_nodes a);
  check_int (Topology.kind_name kind ^ " c") c (Assignment.channels_per_node a);
  if n >= 2 then
    check (Topology.kind_name kind ^ " overlap >= k") true
      (Assignment.min_pairwise_overlap a >= k)

let test_generators_satisfy_invariants () =
  List.iter
    (fun kind ->
      List.iter
        (fun spec ->
          let a = Topology.generate kind (Rng.create 11) spec in
          assert_invariants kind spec a)
        specs)
    Topology.all_kinds

let test_shared_core_exact_overlap () =
  let spec = { Topology.n = 10; c = 8; k = 3 } in
  let a = Topology.shared_core (Rng.create 3) spec in
  check_int "C = k + n(c-k)" (3 + (10 * 5)) (Assignment.num_channels a);
  for u = 0 to 8 do
    for v = u + 1 to 9 do
      check_int "exactly k overlap" 3 (Assignment.overlap a u v)
    done
  done

let test_identical_full_overlap () =
  let spec = { Topology.n = 4; c = 7; k = 2 } in
  let a = Topology.identical (Rng.create 4) spec in
  check_int "overlap = c" 7 (Assignment.min_pairwise_overlap a)

let test_pairwise_private_structure () =
  let spec = { Topology.n = 4; c = 6; k = 2 } in
  let a = Topology.pairwise_private (Rng.create 5) spec in
  (* Every pair shares exactly its dedicated k-block: overlap exactly k. *)
  for u = 0 to 2 do
    for v = u + 1 to 3 do
      check_int "pair overlap" 2 (Assignment.overlap a u v)
    done
  done

let test_pairwise_private_requires_capacity () =
  Alcotest.check_raises "c too small"
    (Invalid_argument "Topology.pairwise_private: need c >= k*(n-1)") (fun () ->
      ignore (Topology.pairwise_private (Rng.create 1) { Topology.n = 10; c = 4; k = 2 }))

let test_global_labels_sorted () =
  let a =
    Topology.shared_plus_random ~global_labels:true (Rng.create 6)
      { Topology.n = 5; c = 6; k = 2 }
  in
  for v = 0 to 4 do
    let prev = ref (-1) in
    for label = 0 to 5 do
      let ch = Assignment.global_of_local a ~node:v ~label in
      check "labels ascend with channel id" true (ch > !prev);
      prev := ch
    done
  done

let test_spec_validation () =
  Alcotest.check_raises "k > c" (Invalid_argument "Topology: k must not exceed c")
    (fun () -> Topology.validate_spec { Topology.n = 3; c = 2; k = 5 });
  Alcotest.check_raises "k = 0" (Invalid_argument "Topology: k must be at least 1")
    (fun () -> Topology.validate_spec { Topology.n = 3; c = 2; k = 0 })

let prop_generators_overlap =
  let kinds = Array.of_list Topology.all_kinds in
  QCheck.Test.make ~name:"every generator keeps pairwise overlap >= k" ~count:150
    QCheck.(quad small_int (int_range 2 12) (int_range 1 8) (int_range 0 4))
    (fun (seed, n, c, kk) ->
      let c = max c 2 in
      let k = 1 + (kk mod c) in
      let kind = kinds.(seed mod Array.length kinds) in
      let spec = { Topology.n; c; k } in
      let a = Topology.generate kind (Rng.create seed) spec in
      Assignment.min_pairwise_overlap a >= k
      && Assignment.channels_per_node a = c
      && Assignment.num_nodes a = n)

(* --- Dynamic ------------------------------------------------------------ *)

let test_dynamic_static () =
  let a = Topology.identical (Rng.create 1) { Topology.n = 3; c = 4; k = 1 } in
  let d = Dynamic.static a in
  check_int "n" 3 (Dynamic.num_nodes d);
  check_int "c" 4 (Dynamic.channels_per_node d);
  check "same assignment every slot" true (Dynamic.at d 0 == Dynamic.at d 57)

let test_dynamic_memoized () =
  let calls = ref 0 in
  let a = Topology.identical (Rng.create 1) { Topology.n = 2; c = 3; k = 1 } in
  let d =
    Dynamic.of_fun ~num_nodes:2 ~channels_per_node:3 (fun _slot ->
        incr calls;
        a)
  in
  ignore (Dynamic.at d 5);
  ignore (Dynamic.at d 5);
  ignore (Dynamic.at d 6);
  check_int "memoized per slot" 2 !calls

let test_dynamic_dimension_check () =
  let a2 = Topology.identical (Rng.create 1) { Topology.n = 2; c = 3; k = 1 } in
  let d = Dynamic.of_fun ~num_nodes:3 ~channels_per_node:3 (fun _ -> a2) in
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Dynamic.of_fun: assignment dimensions changed") (fun () ->
      ignore (Dynamic.at d 0))

let test_reshuffled_shared_core () =
  let spec = { Topology.n = 6; c = 5; k = 2 } in
  let d = Dynamic.reshuffled_shared_core ~seed:(Rng.create 77) spec in
  (* Invariant holds in every queried slot; per-slot draws are deterministic. *)
  for slot = 0 to 20 do
    let a = Dynamic.at d slot in
    check "overlap >= k in every slot" true (Assignment.min_pairwise_overlap a >= 2)
  done;
  let d2 = Dynamic.reshuffled_shared_core ~seed:(Rng.create 77) spec in
  check "deterministic per seed" true
    (Assignment.global_of_local (Dynamic.at d 9) ~node:3 ~label:1
    = Assignment.global_of_local (Dynamic.at d2 9) ~node:3 ~label:1)

let test_rotating () =
  let a = Topology.identical (Rng.create 1) { Topology.n = 2; c = 4; k = 4 } in
  let d = Dynamic.rotating a in
  (* Channel sets never change, only labels rotate. *)
  for slot = 0 to 7 do
    let snapshot = Dynamic.at d slot in
    check "sets preserved" true
      (Bitset.equal
         (Assignment.channel_set snapshot ~node:0)
         (Assignment.channel_set a ~node:0))
  done;
  let ch0_slot0 = Assignment.global_of_local (Dynamic.at d 0) ~node:0 ~label:0 in
  let ch0_slot1 = Assignment.global_of_local (Dynamic.at d 1) ~node:0 ~label:0 in
  check "labels drift" true (ch0_slot0 <> ch0_slot1)

(* --- Known answers ------------------------------------------------------- *)

(* MD5 of an assignment's dimensions and its whole [global_of_local] table,
   row by row. The literals below pin every generator's draw order and
   every row, so a change to how tables are built or stored that moves one
   channel shows here. *)
let table_digest a =
  let b = Buffer.create 4096 in
  let c = Assignment.channels_per_node a in
  Printf.bprintf b "%d %d %d;" (Assignment.num_nodes a) (Assignment.num_channels a) c;
  for node = 0 to Assignment.num_nodes a - 1 do
    for label = 0 to c - 1 do
      Printf.bprintf b "%d," (Assignment.global_of_local a ~node ~label)
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let known_tables () =
  let spec = { Topology.n = 40; c = 8; k = 3 } in
  let gen name f =
    List.map
      (fun global_labels ->
        ( Printf.sprintf "%s%s" name (if global_labels then " global" else ""),
          f ~global_labels (Rng.create 11) ))
      [ false; true ]
  in
  let spr = Topology.shared_plus_random (Rng.create 12) spec in
  gen "shared_core" (fun ~global_labels rng -> Topology.shared_core ~global_labels rng spec)
  @ gen "identical" (fun ~global_labels rng -> Topology.identical ~global_labels rng spec)
  @ gen "shared_plus_random" (fun ~global_labels rng ->
        Topology.shared_plus_random ~global_labels rng spec)
  @ gen "pairwise_private" (fun ~global_labels rng ->
        Topology.pairwise_private ~global_labels rng { Topology.n = 6; c = 12; k = 2 })
  @ gen "clustered" (fun ~global_labels rng ->
        Topology.clustered ~global_labels ~groups:4 rng spec)
  @ [
      ("relabel", Assignment.relabel (Rng.create 13) spr);
      ("permute_channels", Assignment.permute_channels (Rng.create 14) spr);
      ("rotating slot 3", Dynamic.at (Dynamic.rotating spr) 3);
    ]

let expected_digests =
  [
    ("shared_core", "434171a06b09098c6feac8e2c3262601");
    ("shared_core global", "6ca83235d5e6004fcb8b185c9e55136d");
    ("identical", "1ee784a38d628d0323f580e1a673ca86");
    ("identical global", "bae9806753fd9bfdb56f68f3e18d2501");
    ("shared_plus_random", "8550eff905381854568253a8ab3d3fdd");
    ("shared_plus_random global", "6a8f92bff27bba1715037b57eff97164");
    ("pairwise_private", "9861930e35773ef46e0e0c72837312ca");
    ("pairwise_private global", "380aa18892009df55348c34d7cd72027");
    ("clustered", "22666037b91487030c02c178f84f2f4a");
    ("clustered global", "2d4fa4e39d3bac2c7695bc1af75210d2");
    ("relabel", "8c96a3f3283dfc75bd7cfbc2b6ff4f06");
    ("permute_channels", "5d30178e1021ed9a1b8f5e7a5e178cae");
    ("rotating slot 3", "312dc2382526f930d4dfa9da1ea1785e");
  ]

(* The generic generator writes its table in place: at n = 10^4 the table
   goes straight to the major heap, and what the minor heap sees (the
   sampler, the validation stamps, the record) does not grow with n. *)
let test_shared_plus_random_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 10_000 in
    let words =
      Alloc.minor_words (fun () ->
          ignore
            (Sys.opaque_identity
               (Topology.shared_plus_random (Rng.create 3) { Topology.n; c = 16; k = 4 })))
    in
    if words >= float_of_int n then
      Alcotest.failf "shared_plus_random at n=%d allocates %.0f minor words (%.2f per node)" n
        words (words /. float_of_int n)
  end

let test_known_tables () =
  List.iter
    (fun (name, a) ->
      Alcotest.(check string) name (List.assoc name expected_digests) (table_digest a))
    (known_tables ())

let () =
  Alcotest.run "crn_channel"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "algebra" `Quick test_bitset_algebra;
          Alcotest.test_case "iteration order" `Quick test_bitset_iter_order;
          Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
          QCheck_alcotest.to_alcotest prop_bitset_vs_reference;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "validation" `Quick test_assignment_validation;
          Alcotest.test_case "accessors" `Quick test_assignment_accessors;
          Alcotest.test_case "relabel preserves sets" `Quick test_relabel_preserves_sets;
          Alcotest.test_case "permute preserves overlap" `Quick
            test_permute_channels_preserves_overlap;
        ] );
      ( "topology",
        [
          Alcotest.test_case "all generators invariants" `Quick
            test_generators_satisfy_invariants;
          Alcotest.test_case "shared_core exact overlap" `Quick test_shared_core_exact_overlap;
          Alcotest.test_case "identical full overlap" `Quick test_identical_full_overlap;
          Alcotest.test_case "pairwise_private structure" `Quick test_pairwise_private_structure;
          Alcotest.test_case "pairwise_private capacity" `Quick
            test_pairwise_private_requires_capacity;
          Alcotest.test_case "global labels sorted" `Quick test_global_labels_sorted;
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
          Alcotest.test_case "shared_plus_random allocation" `Quick
            test_shared_plus_random_allocation;
          QCheck_alcotest.to_alcotest prop_generators_overlap;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "static" `Quick test_dynamic_static;
          Alcotest.test_case "memoized" `Quick test_dynamic_memoized;
          Alcotest.test_case "dimension check" `Quick test_dynamic_dimension_check;
          Alcotest.test_case "reshuffled shared core" `Quick test_reshuffled_shared_core;
          Alcotest.test_case "rotating" `Quick test_rotating;
        ] );
      ("vectors", [ Alcotest.test_case "table digests" `Quick test_known_tables ]);
    ]
