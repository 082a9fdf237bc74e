type t = { gen : Xoshiro.t; sm : Splitmix.t }

(* The child's splitting state is drawn from [sm] before its four Xoshiro
   words: every seeded stream, and so every golden output, depends on this
   order. *)
let of_splitmix sm =
  let child_sm = Splitmix.split sm in
  { gen = Xoshiro.of_splitmix sm; sm = child_sm }

let of_int64 seed = of_splitmix (Splitmix.create seed)

let create seed = of_int64 (Splitmix.mix64 (Int64.of_int seed))

let split t = of_splitmix (Splitmix.split t.sm)

let split_n t n = Array.init n (fun _ -> split t)

let copy t = { gen = Xoshiro.copy t.gen; sm = Splitmix.copy t.sm }

let bits64 t = Xoshiro.next t.gen

(* Uniform int on [0, bound) by rejection on the low 62 bits of a draw, which
   keep the value in OCaml's positive int range. Rejecting the tail of the
   range avoids modulo bias. A top-level loop over a native int: no closure
   and no boxed [int64]. *)
let rec draw_below gen bound =
  let r = Xoshiro.next_bits62 gen in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then draw_below gen bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_below t.gen bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* The top 53 bits of a draw, scaled to [0, 1). *)
let[@inline] unit_float t = float_of_int (Xoshiro.next_bits53 t.gen) *. 0x1.0p-53

let float t bound = bound *. unit_float t

let bool t = Xoshiro.next_bits62 t.gen land 1 = 1

let bernoulli t p = unit_float t < p

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p = 1.0 then 1
  else
    (* Inverse-CDF sampling: ceil(ln U / ln (1-p)). *)
    let u = 1.0 -. float t 1.0 in
    let v = ceil (log u /. log (1.0 -. p)) in
    max 1 (int_of_float v)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffled_init t n f =
  let a = Array.init n f in
  shuffle t a;
  a

let permutation t n = shuffled_init t n (fun i -> i)

(* Probe the open-addressing table for [key] from slot [s]: the slot holding
   it, or the empty one (key -1) where it belongs. *)
let rec probe table mask key s =
  let k = table.(2 * s) in
  if k = key || k < 0 then s else probe table mask key ((s + 1) land mask)

(* The value at virtual position [key], whose probe ended at slot [s]. *)
let value_at table s key = if table.(2 * s) = key then table.((2 * s) + 1) else key

let sample_without_replacement t m n =
  if m > n then invalid_arg "Rng.sample_without_replacement: m > n";
  if m < 0 then invalid_arg "Rng.sample_without_replacement: m < 0";
  (* Sparse Fisher–Yates over the virtual array [0..n-1]: step i swaps
     position i with a uniform j in [i, n) and yields the value at j. Later
     steps read only positions above i, so only j's new value is stored, in a
     flat table of at most m keys in at least 2m slots: slot s holds a
     position at [2s] (-1 when empty) and its value at [2s + 1]. *)
  let slots = ref 1 in
  while !slots < 2 * m do
    slots := 2 * !slots
  done;
  let mask = !slots - 1 in
  let table = Array.make (2 * !slots) (-1) in
  let out = Array.make m 0 in
  for i = 0 to m - 1 do
    let j = int_in t i (n - 1) in
    let vi = value_at table (probe table mask i (i land mask)) i in
    let sj = probe table mask j (j land mask) in
    out.(i) <- value_at table sj j;
    table.(2 * sj) <- j;
    table.((2 * sj) + 1) <- vi
  done;
  out

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))
