(* One row-major table: node v's label l maps to [table.(v * c + l)]. *)
type t = { num_channels : int; c : int; table : int array }

let fail fn msg = invalid_arg (Printf.sprintf "Assignment.%s: %s" fn msg)

(* Range and duplicate checks of node [v]'s row, with [seen] (one byte per
   global channel, all zero on entry) reset to zero on exit. *)
let check_row fn ~num_channels seen table ~c v =
  let base = v * c in
  for i = base to base + c - 1 do
    let ch = table.(i) in
    if ch < 0 || ch >= num_channels then fail fn "channel id out of range";
    if Bytes.get seen ch <> '\000' then fail fn "duplicate channel in a node's set";
    Bytes.set seen ch '\001'
  done;
  for i = base to base + c - 1 do
    Bytes.set seen table.(i) '\000'
  done

let of_table ~num_channels ~channels_per_node:c table =
  if c <= 0 then fail "of_table" "empty channel sets";
  let len = Array.length table in
  if len = 0 then fail "of_table" "no nodes";
  if len mod c <> 0 then fail "of_table" "ragged rows (nodes must have equal c)";
  let seen = Bytes.make (max 0 num_channels) '\000' in
  for v = 0 to (len / c) - 1 do
    check_row "of_table" ~num_channels seen table ~c v
  done;
  { num_channels; c; table }

let create ~num_channels ~local_to_global =
  let n = Array.length local_to_global in
  if n = 0 then fail "create" "no nodes";
  let c = Array.length local_to_global.(0) in
  if c = 0 then fail "create" "empty channel sets";
  let table = Array.make (n * c) 0 in
  let seen = Bytes.make (max 0 num_channels) '\000' in
  Array.iteri
    (fun v row ->
      if Array.length row <> c then fail "create" "ragged rows (nodes must have equal c)";
      Array.blit row 0 table (v * c) c;
      check_row "create" ~num_channels seen table ~c v)
    local_to_global;
  { num_channels; c; table }

let num_nodes t = Array.length t.table / t.c
let num_channels t = t.num_channels
let channels_per_node t = t.c

let global_of_local t ~node ~label =
  if label < 0 || label >= t.c then invalid_arg "Assignment.global_of_local: label out of range";
  t.table.((node * t.c) + label)

let local_of_global t ~node ~channel =
  let base = node * t.c in
  let rec scan l =
    if l >= t.c then None else if t.table.(base + l) = channel then Some l else scan (l + 1)
  in
  scan 0

let channel_set t ~node =
  let set = Bitset.create t.num_channels in
  for i = node * t.c to (node * t.c) + t.c - 1 do
    Bitset.set set t.table.(i)
  done;
  set

let overlap t u v =
  let shared = ref 0 in
  for i = u * t.c to (u * t.c) + t.c - 1 do
    if local_of_global t ~node:v ~channel:t.table.(i) <> None then incr shared
  done;
  !shared

let min_pairwise_overlap t =
  let n = num_nodes t in
  if n < 2 then t.c
  else begin
    let sets = Array.init n (fun node -> channel_set t ~node) in
    let best = ref max_int in
    for u = 0 to n - 2 do
      for v = u + 1 to n - 1 do
        best := min !best (Bitset.inter_cardinal sets.(u) sets.(v))
      done
    done;
    !best
  end

let relabel rng t =
  let table = Array.copy t.table in
  for v = 0 to num_nodes t - 1 do
    Crn_prng.Rng.shuffle_sub rng table (v * t.c) t.c
  done;
  { t with table }

let pp fmt t =
  Format.fprintf fmt "@[<v>assignment: n=%d C=%d c=%d@," (num_nodes t) t.num_channels t.c;
  for node = 0 to num_nodes t - 1 do
    Format.fprintf fmt "  node %d: [%s]@," node
      (String.concat ";"
         (List.init t.c (fun l -> string_of_int t.table.((node * t.c) + l))))
  done;
  Format.fprintf fmt "@]"

let permute_channels rng t =
  let perm = Crn_prng.Rng.permutation rng t.num_channels in
  { t with table = Array.map (fun ch -> perm.(ch)) t.table }
