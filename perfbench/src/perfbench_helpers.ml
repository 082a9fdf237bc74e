let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Perfbench_helpers.median: empty sample";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rank ~count p = int_of_float (Float.ceil (p *. float_of_int count /. 100.0))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Perfbench_helpers.percentile: empty sample";
  if not (p > 0.0 && p <= 100.0) then
    invalid_arg "Perfbench_helpers.percentile: p must be in (0, 100]";
  let a = sorted xs in
  a.(max 0 (min (n - 1) (rank ~count:n p - 1)))

let beyond ~count p = count - rank ~count p

let tail_percentile xs =
  let count = Array.length xs in
  List.find_map
    (fun p -> if beyond ~count p >= 10 then Some (p, percentile xs p) else None)
    [ 99.9; 99.0; 90.0; 50.0 ]

let is_alnum ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')

let valid_chars ~max_len ~extra s =
  let len = String.length s in
  len >= 1 && len <= max_len
  && String.for_all (fun ch -> is_alnum ch || String.contains extra ch) s

let valid_name s = valid_chars ~max_len:64 ~extra:"_.-" s && is_alnum s.[0]
let valid_unit s = valid_chars ~max_len:16 ~extra:"_/%.-" s

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let failed_frac t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted

type child = { start : float; stop : float; busy : float }

let covered ~start ~stop children =
  let clipped =
    List.filter_map
      (fun c ->
        let s = Float.max start c.start and e = Float.min stop c.stop in
        if e > s then Some { start = s; stop = e; busy = Float.min c.busy (e -. s) }
        else None)
      children
    |> List.sort (fun a b -> compare a.start b.start)
  in
  (* Sweep the children in start order, merging overlapping hulls into
     groups: a lone child contributes its busy time, a group of overlapping
     ones the length of their union. *)
  let close (g_start, g_stop, g_busy, members) =
    if members = 1 then g_busy else g_stop -. g_start
  in
  let total, group =
    List.fold_left
      (fun (total, group) c ->
        match group with
        | Some (g_start, g_stop, g_busy, members) when c.start < g_stop ->
            (total, Some (g_start, Float.max g_stop c.stop, g_busy, members + 1))
        | Some g -> (total +. close g, Some (c.start, c.stop, c.busy, 1))
        | None -> (total, Some (c.start, c.stop, c.busy, 1)))
      (0.0, None) clipped
  in
  match group with Some g -> total +. close g | None -> total

let self_time ~start ~stop children = stop -. start -. covered ~start ~stop children
