(* A buffer holds 256-bit states, state i at bytes 32i .. 32i+31: its words
   s0..s3 at 32i, 32i+8, 32i+16 and 32i+24 in native byte order, read and
   written with the unchecked 64-bit primitives. [step_at] is inlined into
   each draw below, so its words and its result stay unboxed; only [next]
   boxes, because it returns an [int64]. A single generator [t] is a
   one-state buffer, drawn at offset 0 with no index check; a [states]
   buffer of n states holds exactly 32n bytes, and its draws check the
   index. *)
type t = Bytes.t
type states = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

(* SplitMix64 output is never all-zero across four draws in practice; guard
   anyway because xoshiro's zero state is absorbing. *)
let nonzero t off =
  if Int64.(logor (logor (get64 t off) (get64 t (off + 8)))
              (logor (get64 t (off + 16)) (get64 t (off + 24)))) = 0L
  then set64 t off 1L

let of_splitmix sm =
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    Splitmix.next_into sm t (8 * w)
  done;
  nonzero t 0;
  t

let create seed = of_splitmix (Splitmix.create seed)

let states n =
  if n < 0 then invalid_arg "Xoshiro.states: negative count";
  Bytes.make (32 * n) '\000'

let[@inline] check_state s i =
  if i < 0 || i >= Bytes.length s lsr 5 then invalid_arg "Xoshiro: state index out of range"

let seed_split_at s i sm =
  check_state s i;
  Splitmix.split_words_into sm s (32 * i);
  nonzero s (32 * i)

let copy = Bytes.copy

let[@inline] step_at t off =
  let s0 = get64 t off and s1 = get64 t (off + 8) in
  let s2 = get64 t (off + 16) and s3 = get64 t (off + 24) in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 and s3 = Int64.logxor s3 s1 in
  set64 t off (Int64.logxor s0 s3);
  set64 t (off + 8) (Int64.logxor s1 s2);
  set64 t (off + 16) (Int64.logxor s2 (Int64.shift_left s1 17));
  set64 t (off + 24) (rotl s3 45);
  result

let next_bits62_at t i =
  check_state t i;
  Int64.to_int (step_at t (32 * i)) land max_int

let next t = step_at t 0

let next_bits62 t = Int64.to_int (step_at t 0) land max_int

let next_bits53 t = Int64.to_int (Int64.shift_right_logical (step_at t 0) 11)

let jump_table =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL;
     0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun jump_word ->
      for b = 0 to 63 do
        if Int64.(logand jump_word (shift_left 1L b)) <> 0L then
          for i = 0 to 3 do
            set64 acc (8 * i) (Int64.logxor (get64 acc (8 * i)) (get64 t (8 * i)))
          done;
        ignore (step_at t 0)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32
