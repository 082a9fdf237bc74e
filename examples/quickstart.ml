(* Quickstart: build a cognitive radio network, broadcast a message with
   COGCAST, aggregate sensor values with COGCOMP, and compare against the
   Theorem 4 / Theorem 10 predictions.

   Run with:  dune exec examples/quickstart.exe *)

module Crn = Crn_core.Crn
module Cogcast = Crn_core.Cogcast
module Cogcomp = Crn_core.Cogcomp
module Aggregate = Crn_core.Aggregate
module Disttree = Crn_core.Disttree

let () =
  (* 60 devices; each sees 12 usable channels out of a wider spectrum; any
     two devices share at least 3 channels. *)
  let net = Crn.make_network ~seed:2024 ~n:60 ~c:12 ~k:3 () in
  Printf.printf "network: n=60 c=12 k=3 (topology: shared + random extras)\n";
  Printf.printf "Theorem 4 predicts broadcast in ~%.0f slots (unit constants)\n\n"
    (Crn.broadcast_bound net);

  (* Local broadcast from node 0. *)
  let r = Crn.broadcast ~seed:7 net in
  (match r.Cogcast.completed_at with
  | Some slots ->
      Printf.printf "COGCAST: all %d nodes informed after %d slots\n" r.Cogcast.n slots
  | None ->
      Printf.eprintf "COGCAST: incomplete (%d informed)\n" r.Cogcast.informed_count;
      exit 1);
  let tree = Disttree.of_result r in
  Printf.printf "distribution tree: height %d, %d clusters, largest cluster %d\n\n"
    (Disttree.height tree)
    (List.length tree.Disttree.clusters)
    (Disttree.max_cluster tree);

  (* Aggregate: every node holds a reading; node 0 wants the sum. *)
  let readings = Array.init 60 (fun i -> (i * 31) mod 97) in
  let res = Crn.aggregate ~seed:8 net ~monoid:Aggregate.sum ~values:readings in
  let expected = Array.fold_left ( + ) 0 readings in
  let total = res.Cogcomp.root_value in
  if not res.Cogcomp.complete then begin
    Printf.eprintf "COGCOMP: incomplete\n";
    exit 1
  end
  else if total <> expected then begin
    Printf.eprintf "COGCOMP: wrong sum %d (expected %d)\n" total expected;
    exit 1
  end
  else
    Printf.printf "COGCOMP: root learned sum = %d (expected %d) in %d slots\n" total
      expected res.Cogcomp.total_slots;
  Printf.printf "  phases: broadcast %d + roster %d + rewind %d + drain %d slots\n"
    res.Cogcomp.phase1_slots res.Cogcomp.phase2_slots res.Cogcomp.phase3_slots
    res.Cogcomp.phase4_slots
