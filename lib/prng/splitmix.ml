(* The state is one 64-bit word in an 8-byte buffer, read and written with
   the unchecked native-endian primitives, so a step keeps it unboxed. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external set64_checked : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

(* Stafford's Mix13 variant of the MurmurHash3 finalizer. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let copy = Bytes.copy

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let next_int64 = next

let next_into t buf off = set64_checked buf off (next t)

let split t = create (mix64 (next t))

(* Output i of the generator [split] would return, whose state is [s], is
   [mix64 (s + i * golden_gamma)]. *)
let split_words_into t buf off =
  if off < 0 || off > Bytes.length buf - 32 then
    invalid_arg "Splitmix.split_words_into: destination out of range";
  let s = mix64 (next t) in
  set64 buf off (mix64 (Int64.add s (Int64.mul 2L golden_gamma)));
  set64 buf (off + 8) (mix64 (Int64.add s (Int64.mul 3L golden_gamma)));
  set64 buf (off + 16) (mix64 (Int64.add s (Int64.mul 4L golden_gamma)));
  set64 buf (off + 24) (mix64 (Int64.add s (Int64.mul 5L golden_gamma)))
