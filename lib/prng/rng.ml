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

(* Uniform int on [0, bound) by rejection on the low 62 bits [r] of a draw,
   which keep the value in OCaml's positive int range: [r mod bound], or -1
   when [r] falls in the tail of the range whose rejection avoids modulo
   bias. The draw loops below are top-level recursions over native ints: no
   closure and no boxed [int64]. *)
let[@inline] below r bound =
  let v = r mod bound in
  if r - v > max_int - bound + 1 then -1 else v

let rec draw_below gen bound =
  let v = below (Xoshiro.next_bits62 gen) bound in
  if v < 0 then draw_below gen bound else v

let rec draw_below_at states i bound =
  let v = below (Xoshiro.next_bits62_at states i) bound in
  if v < 0 then draw_below_at states i bound else v

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

let shuffle_sub t a pos len =
  if pos < 0 || len < 0 || pos > Array.length a - len then
    invalid_arg "Rng.shuffle_sub: segment out of range";
  for i = len - 1 downto 1 do
    let j = pos + int t (i + 1) in
    let tmp = a.(pos + i) in
    a.(pos + i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a = shuffle_sub t a 0 (Array.length a)

let shuffled_init t n f =
  let a = Array.init n f in
  shuffle t a;
  a

let permutation t n = shuffled_init t n (fun i -> i)

(* A sampler is a flat open-addressing table of at least 2m slots: slot s
   holds a position at [2s] (-1 when empty) and its value at [2s + 1].
   [touched] keeps the slots a sample wrote, which it clears afterwards. *)
type sampler = { table : int array; mask : int; touched : int array }

let sampler m =
  if m < 0 then invalid_arg "Rng.sampler: m < 0";
  let slots = ref 1 in
  while !slots < 2 * m do
    slots := 2 * !slots
  done;
  { table = Array.make (2 * !slots) (-1); mask = !slots - 1; touched = Array.make m 0 }

let sample_into t s m n dst pos =
  if m > n then invalid_arg "Rng.sample_into: m > n";
  if m < 0 then invalid_arg "Rng.sample_into: m < 0";
  if m > Array.length s.touched then invalid_arg "Rng.sample_into: m exceeds the sampler";
  if pos < 0 || pos > Array.length dst - m then
    invalid_arg "Rng.sample_into: destination out of range";
  (* Sparse Fisher–Yates over the virtual array [0..n-1]: step i swaps
     position i with a uniform j in [i, n) and yields the value at j. Later
     steps read only positions above i, so only j's new value is stored. *)
  let { table; mask; touched } = s in
  for i = 0 to m - 1 do
    let j = int_in t i (n - 1) in
    (* Each probe for a position p runs from slot [p land mask] to the slot
       holding p, or to the empty slot where p belongs; a position never
       stored holds itself. The probes are loops written out in place,
       because a recursive probe function, called twice a step, made
       sampling nearly twice as slow. *)
    let si = ref (i land mask) in
    while
      let k = table.(2 * !si) in
      k <> i && k >= 0
    do
      si := (!si + 1) land mask
    done;
    let vi = if table.(2 * !si) = i then table.((2 * !si) + 1) else i in
    let sj = ref (j land mask) in
    while
      let k = table.(2 * !sj) in
      k <> j && k >= 0
    do
      sj := (!sj + 1) land mask
    done;
    let sj = !sj in
    dst.(pos + i) <- (if table.(2 * sj) = j then table.((2 * sj) + 1) else j);
    table.(2 * sj) <- j;
    table.((2 * sj) + 1) <- vi;
    touched.(i) <- sj
  done;
  for i = 0 to m - 1 do
    table.(2 * touched.(i)) <- -1
  done

let sample_without_replacement t m n =
  if m > n then invalid_arg "Rng.sample_without_replacement: m > n";
  if m < 0 then invalid_arg "Rng.sample_without_replacement: m < 0";
  let out = Array.make m 0 in
  sample_into t (sampler m) m n out 0;
  out

module Arena = struct
  type nonrec t = Xoshiro.states

  (* Child v's state is seeded exactly as [split]'s v-th child's generator:
     from [Splitmix.split rng.sm], after the one word [of_splitmix] would
     seed the child's own splitter from. No node stream is split again, so
     that word is skipped, and the fill allocates nothing but the buffer. *)
  let split_n rng n =
    let states = Xoshiro.states n in
    for v = 0 to n - 1 do
      Xoshiro.seed_split_at states v rng.sm
    done;
    states

  let int a node bound =
    if bound <= 0 then invalid_arg "Rng.Arena.int: bound must be positive";
    draw_below_at a node bound

  let bool a node = Xoshiro.next_bits62_at a node land 1 = 1
end

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))
