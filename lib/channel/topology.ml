module Rng = Crn_prng.Rng

type spec = { n : int; c : int; k : int }

let validate_spec { n; c; k } =
  if n < 1 then invalid_arg "Topology: need at least one node";
  if k < 1 then invalid_arg "Topology: k must be at least 1";
  if k > c then invalid_arg "Topology: k must not exceed c"

(* Finish a flat row-major table in place (every caller passes one it has
   just built): per-node label shuffle for the local-label model, or
   increasing global order for the global-label model. *)
let finalize ?(global_labels = false) rng ~num_channels ~c table =
  let n = Array.length table / c in
  if global_labels then begin
    let row = Array.make c 0 in
    for v = 0 to n - 1 do
      Array.blit table (v * c) row 0 c;
      Array.sort Int.compare row;
      Array.blit row 0 table (v * c) c
    done
  end
  else
    for v = 0 to n - 1 do
      Rng.shuffle_sub rng table (v * c) c
    done;
  Assignment.of_table ~num_channels ~channels_per_node:c table

(* The flat table whose node [u], label [i] entry is [f u i]. *)
let tabulate ~n ~c f =
  let table = Array.make (n * c) 0 in
  for u = 0 to n - 1 do
    for i = 0 to c - 1 do
      table.((u * c) + i) <- f u i
    done
  done;
  table

let shared_core ?global_labels rng spec =
  validate_spec spec;
  let { n; c; k } = spec in
  let num_channels = k + (n * (c - k)) in
  (* Channels 0..k-1 are the common core; node u's private block is
     k + u*(c-k) .. k + (u+1)*(c-k) - 1. *)
  let table = tabulate ~n ~c (fun u i -> if i < k then i else k + (u * (c - k)) + (i - k)) in
  finalize ?global_labels rng ~num_channels ~c table

let identical ?global_labels rng spec =
  validate_spec spec;
  let { n; c; _ } = spec in
  finalize ?global_labels rng ~num_channels:c ~c (tabulate ~n ~c (fun _ i -> i))

let shared_plus_random ?global_labels ?big_c rng spec =
  validate_spec spec;
  let { n; c; k } = spec in
  let big_c = match big_c with Some v -> v | None -> 4 * c in
  if big_c < c then invalid_arg "Topology.shared_plus_random: big_c < c";
  (* Channels 0..k-1 common; the rest of each node's set is a uniform random
     (c-k)-subset of the remaining spectrum, sampled straight into the
     node's row. Every node samples, in node order, before [finalize]
     shuffles any row. *)
  let table = Array.make (n * c) 0 in
  let sampler = Rng.sampler (c - k) in
  for u = 0 to n - 1 do
    let base = u * c in
    for i = 0 to k - 1 do
      table.(base + i) <- i
    done;
    Rng.sample_into rng sampler (c - k) (big_c - k) table (base + k);
    for i = base + k to base + c - 1 do
      table.(i) <- k + table.(i)
    done
  done;
  finalize ?global_labels rng ~num_channels:big_c ~c table

let pairwise_private ?global_labels rng spec =
  validate_spec spec;
  let { n; c; k } = spec in
  if n >= 2 && c < k * (n - 1) then
    invalid_arg "Topology.pairwise_private: need c >= k*(n-1)";
  (* Pair (u,v), u < v, owns the dedicated block pair_index(u,v)*k ..+k-1.
     Each node participates in n-1 pairs, consuming k*(n-1) channels;
     remaining capacity is private filler. *)
  let pair_index u v =
    (* Index of (u,v) with u < v in lexicographic pair order. *)
    (u * n) - (u * (u + 1) / 2) + (v - u - 1)
  in
  let num_pairs = n * (n - 1) / 2 in
  let filler_per_node = c - (k * (max 0 (n - 1))) in
  let num_channels = max 1 ((num_pairs * k) + (n * filler_per_node)) in
  (* Node u's row lists its pair blocks in increasing partner order, then
     its filler, and is stored back to front: the last channel listed
     takes label 0. *)
  let table = Array.make (n * c) 0 in
  for u = 0 to n - 1 do
    let pos = ref ((u * c) + c - 1) in
    let push ch =
      table.(!pos) <- ch;
      decr pos
    in
    for v = 0 to n - 1 do
      if v <> u then begin
        let lo = min u v and hi = max u v in
        let base = pair_index lo hi * k in
        for j = 0 to k - 1 do
          push (base + j)
        done
      end
    done;
    let filler_base = (num_pairs * k) + (u * filler_per_node) in
    for j = 0 to filler_per_node - 1 do
      push (filler_base + j)
    done
  done;
  finalize ?global_labels rng ~num_channels ~c table

let clustered ?global_labels ~groups rng spec =
  validate_spec spec;
  if groups < 1 then invalid_arg "Topology.clustered: groups < 1";
  let { n; c; k } = spec in
  if groups > 1 && c - k < 1 then invalid_arg "Topology.clustered: need c > k";
  (* k common channels; each group shares a block of size g_share; the rest
     is per-node private. *)
  let g_share = (c - k + 1) / 2 in
  let private_per_node = c - k - g_share in
  let group_of u = u mod groups in
  let group_base g = k + (g * g_share) in
  let private_base = k + (groups * g_share) in
  let num_channels = private_base + (n * private_per_node) in
  let table =
    tabulate ~n ~c (fun u i ->
        if i < k then i
        else if i < k + g_share then group_base (group_of u) + (i - k)
        else private_base + (u * private_per_node) + (i - k - g_share))
  in
  finalize ?global_labels rng ~num_channels:(max 1 num_channels) ~c table

type kind = Shared_core | Identical | Shared_plus_random | Pairwise_private | Clustered

let all_kinds = [ Shared_core; Identical; Shared_plus_random; Pairwise_private; Clustered ]

let kind_name = function
  | Shared_core -> "shared-core"
  | Identical -> "identical"
  | Shared_plus_random -> "shared+random"
  | Pairwise_private -> "pairwise-private"
  | Clustered -> "clustered"

let generate ?global_labels kind rng spec =
  match kind with
  | Shared_core -> shared_core ?global_labels rng spec
  | Identical -> identical ?global_labels rng spec
  | Shared_plus_random -> shared_plus_random ?global_labels rng spec
  | Pairwise_private ->
      if spec.n >= 2 && spec.c < spec.k * (spec.n - 1) then
        shared_core ?global_labels rng spec
      else pairwise_private ?global_labels rng spec
  | Clustered ->
      if spec.c - spec.k < 1 then identical ?global_labels rng spec
      else clustered ?global_labels ~groups:4 rng spec
