let lg x = Float.max 1.0 (log x /. log 2.0)

let check ~n ~c ~k =
  if n < 1 || c < 1 || k < 1 || k > c then
    invalid_arg "Complexity: need n >= 1 and 1 <= k <= c"

let check_factor ~who factor =
  if not (Float.is_finite factor && factor > 0.0) then
    invalid_arg (who ^ ": budget factor must be finite and > 0")

let cogcast ?(factor = 12.0) ~n ~c ~k () =
  check ~n ~c ~k;
  check_factor ~who:"Complexity.cogcast" factor;
  let fc = float_of_int c and fk = float_of_int k and fn = float_of_int n in
  factor *. (fc /. fk) *. Float.max 1.0 (fc /. fn) *. lg fn

let cogcast_slots ?factor ~n ~c ~k () =
  max 1 (int_of_float (Float.ceil (cogcast ?factor ~n ~c ~k ())))

let cogcomp ?(factor = 12.0) ~n ~c ~k () =
  cogcast ~factor ~n ~c ~k () +. (factor *. float_of_int n)

let rendezvous_broadcast ~n ~c ~k =
  check ~n ~c ~k;
  let fc = float_of_int c in
  fc *. fc /. float_of_int k *. lg (float_of_int n)

let rendezvous_aggregation ~n ~c ~k =
  check ~n ~c ~k;
  let fc = float_of_int c in
  fc *. fc *. float_of_int n /. float_of_int k

let broadcast_lower_bound ~n ~c ~k =
  check ~n ~c ~k;
  let fc = float_of_int c and fk = float_of_int k and fn = float_of_int n in
  fc /. fk *. Float.max 1.0 (fc /. fn)

let global_label_lower_bound ~c ~k = float_of_int (c + 1) /. float_of_int (k + 1)

let bipartite_game_lower_bound ?(beta = 2.0) ~c ~k () =
  if beta < 2.0 then invalid_arg "Complexity.bipartite_game_lower_bound: beta < 2";
  let alpha = 2.0 *. ((beta /. (beta -. 1.0)) ** 2.0) in
  float_of_int (c * c) /. (alpha *. float_of_int k)

let complete_game_lower_bound ~c = float_of_int c /. 3.0

let hop_together ~n ~c ~k =
  check ~n ~c ~k;
  float_of_int (k + (n * (c - k))) /. float_of_int k
