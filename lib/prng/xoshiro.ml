(* The 256-bit state s0..s3 lives in one 32-byte buffer, at bytes 0, 8, 16
   and 24 in native byte order, read and written with the unchecked 64-bit
   primitives. [step] is inlined into each draw below, so its words and its
   result stay unboxed; only [next] boxes, because it returns an [int64]. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let of_splitmix sm =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (Splitmix.next sm)
  done;
  (* SplitMix64 output is never all-zero across four draws in practice; guard
     anyway because xoshiro's zero state is absorbing. *)
  if Int64.(logor (logor (get64 t 0) (get64 t 8)) (logor (get64 t 16) (get64 t 24))) = 0L
  then set64 t 0 1L;
  t

let create seed = of_splitmix (Splitmix.create seed)

let copy = Bytes.copy

let[@inline] step t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 and s3 = Int64.logxor s3 s1 in
  set64 t 0 (Int64.logxor s0 s3);
  set64 t 8 (Int64.logxor s1 s2);
  set64 t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let next t = step t

let next_bits62 t = Int64.to_int (step t) land max_int

let next_bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

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
        ignore (step t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32
