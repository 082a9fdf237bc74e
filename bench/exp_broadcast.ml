(* Experiments E1-E3, E5, E11: COGCAST scaling (Theorem 4), overlap-pattern
   robustness (Claims 1-3) and the dynamic model (§7).

   Every cell is one registry point (Bench_util.point), so each table
   prints the `crn_sim run` line that reproduces its rows, and the tables
   are identical at any --jobs. *)

open Bench_util
module Topology = Crn_channel.Topology
module Registry = Crn_proto.Registry
module Adversary_lab = Crn_proto.Adversary_lab
module Complexity = Crn_core.Complexity
module Table = Crn_stats.Table
module Series = Crn_stats.Series
module Fit = Crn_stats.Fit

let cogcast = Registry.find_exn "cogcast"

(* One COGCAST point on a shared-core instance, as `crn_sim run -p cogcast
   --topology shared-core`: completion slots per trial, an incomplete trial
   counting the budget it ran. *)
let shared_core ?dynamic ~trials ~seed params =
  Run.spec ~topology:Topology.Shared_core ?dynamic ~trials ~seed cogcast params

(* E1: time vs n at fixed c, for several k. Claim: slope vs lg n is linear
   (Theorem 4's lg n factor) and inversely proportional to k. *)
let e1 () =
  header "E1" "COGCAST completion vs n (c = 32; Theorem 4: ~ (c/k) lg n for n >= c)";
  let c = 32 in
  let ns = if !quick then [ 32; 128; 512 ] else [ 32; 64; 128; 256; 512; 1024; 2048; 4096 ] in
  let ks = [ 1; 4; 16 ] in
  let t = Table.create ("n" :: List.map (fun k -> Printf.sprintf "k=%d" k) ks) in
  let spec ~n ~k =
    shared_core
      ~trials:(trials ~full:(if n >= 2048 then 3 else 5))
      ~seed:(1000 + n + k) { Topology.n; c; k }
  in
  let series =
    List.map
      (fun k ->
        (k, List.map (fun n -> (float_of_int n, median (point (spec ~n ~k)))) ns))
      ks
  in
  List.iteri
    (fun i n ->
      Table.add_row t
        (string_of_int n
        :: List.map (fun (_, pts) -> fmt_f (snd (List.nth pts i))) series))
    ns;
  print_table t;
  let t_small = trials ~full:5 and t_big = trials ~full:3 in
  reproduce
    ~vary:
      ([ ("-n", "N"); ("-k", "K"); ("--seed", "1000+N+K") ]
      @ if t_small = t_big then [] else [ ("--trials", "T") ])
    (spec ~n:(List.hd ns) ~k:(List.hd ks));
  if t_small <> t_big then note "T = %d, or %d at N >= 2048" t_small t_big;
  (* The lg n growth is a tail phenomenon: near n ~ c the boundary constants
     of the max{1, c/n} regime dominate (times first *fall* as n grows past
     c because channels fill with listeners). Fit the n >= 8c tail only. *)
  List.iter
    (fun (k, pts) ->
      let tail = List.filter (fun (n, _) -> n >= float_of_int (8 * c)) pts in
      if List.length tail >= 3 then begin
        let fit = Fit.semilog_x (Array.of_list tail) in
        note "k=%-2d  tail (n >= 8c): slots ~ %.1f * ln n + %.1f  (r2=%.3f; Theorem 4: slope proportional to c/k = %.1f)"
          k fit.Fit.slope fit.Fit.intercept fit.Fit.r2
          (float_of_int c /. float_of_int k)
      end)
    series;
  note "left of n ~ 8c the curve falls with n: the max{1, c/n} boundary regime of Theorem 4";
  Series.print_plot ~title:"  completion slots vs n (log-log)" ~logx:true ~logy:true
    (List.map (fun (k, pts) -> Series.make (Printf.sprintf "k=%d" k) pts) series)

(* E2: time vs c at fixed n: the max{1, c/n} crossover. Claim: slope
   (log-log) ~1 while c <= n, ~2 once c > n. *)
let e2 () =
  header "E2" "COGCAST completion vs c (n = 128, k = 4; crossover at c = n)";
  let n = 128 and k = 4 in
  let cs = if !quick then [ 8; 64; 256 ] else [ 8; 16; 32; 64; 128; 256; 512 ] in
  let t = Table.create [ "c"; "median slots"; "theorem shape (c/k)max{1,c/n}lg n" ] in
  let spec c = shared_core ~trials:(trials ~full:5) ~seed:(2000 + c) { Topology.n; c; k } in
  let pts =
    List.map
      (fun c ->
        let m = median (point (spec c)) in
        Table.add_row t
          [ string_of_int c; fmt_f m; fmt_f (Complexity.cogcast ~factor:1.0 ~n ~c ~k ()) ];
        (float_of_int c, m))
      cs
  in
  print_table t;
  reproduce ~vary:[ ("-c", "C"); ("--seed", "2000+C") ] (spec (List.hd cs));
  let below = List.filter (fun (c, _) -> c <= float_of_int n) pts in
  let above = List.filter (fun (c, _) -> c >= float_of_int n) pts in
  if List.length below >= 2 then
    note "log-log slope for c <= n: %.2f (theorem: ~1)"
      (Fit.log_log (Array.of_list below)).Fit.slope;
  if List.length above >= 2 then
    note "log-log slope for c >= n: %.2f (theorem: ~2)"
      (Fit.log_log (Array.of_list above)).Fit.slope

(* E3: time vs k at fixed n, c. Claim: inverse proportionality (log-log
   slope ~ -1). *)
let e3 () =
  header "E3" "COGCAST completion vs k (n = 256, c = 64; Theorem 4: ~ 1/k)";
  let n = 256 and c = 64 in
  let ks = if !quick then [ 1; 8; 64 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  let t = Table.create [ "k"; "median slots"; "(c/k) lg n" ] in
  let spec k = shared_core ~trials:(trials ~full:5) ~seed:(3000 + k) { Topology.n; c; k } in
  let pts =
    List.map
      (fun k ->
        let m = median (point (spec k)) in
        Table.add_row t
          [ string_of_int k; fmt_f m; fmt_f (Complexity.cogcast ~factor:1.0 ~n ~c ~k ()) ];
        (float_of_int k, m))
      ks
  in
  print_table t;
  reproduce ~vary:[ ("-k", "K"); ("--seed", "3000+K") ] (spec (List.hd ks));
  note "log-log slope vs k: %.2f (theorem: -1)" (Fit.log_log (Array.of_list pts)).Fit.slope

(* E5: Claims 1-3 robustness — the bound holds whatever the overlap
   pattern. *)
let e5 () =
  header "E5" "COGCAST vs overlap pattern (n = 128, c = 16, k = 4; Claims 1-3)";
  let spec = { Topology.n = 128; c = 16; k = 4 } in
  let budget = Complexity.cogcast ~n:128 ~c:16 ~k:4 () in
  let t = Table.create [ "topology"; "median slots"; "p90 slots"; "budget (factor 12)" ] in
  let point_spec topology =
    Run.spec ~topology ~trials:(trials ~full:9) ~seed:4000 cogcast spec
  in
  List.iter
    (fun kind ->
      let s = (point (point_spec kind)).Run.completion in
      Table.add_row t
        [
          Topology.kind_name kind;
          fmt_f s.Crn_stats.Summary.median;
          fmt_f s.Crn_stats.Summary.p90;
          fmt_f budget;
        ])
    Topology.all_kinds;
  print_table t;
  reproduce ~vary:[ ("--topology", "KIND") ] (point_spec Topology.Shared_core);
  note "claim: every pattern completes within the same Theta((c/k) lg n) budget"

(* E11: dynamic channel assignments (§7) — same completion scaling as the
   static model. *)
let e11 () =
  header "E11" "COGCAST static vs dynamic per-slot reshuffle (c = 16, k = 4; §7)";
  let c = 16 and k = 4 in
  let ns = if !quick then [ 32; 256 ] else [ 32; 64; 128; 256; 512; 1024 ] in
  let t = Table.create [ "n"; "static median"; "dynamic median"; "ratio" ] in
  let static n = shared_core ~trials:(trials ~full:5) ~seed:(5000 + n) { Topology.n; c; k } in
  let dynamic n =
    shared_core ~dynamic:Adversary_lab.Reshuffle ~trials:(trials ~full:5)
      ~seed:(6000 + n) { Topology.n; c; k }
  in
  List.iter
    (fun n ->
      let st = median (point (static n)) in
      let dy = median (point (dynamic n)) in
      Table.add_row t [ string_of_int n; fmt_f st; fmt_f dy; fmt_f2 (dy /. st) ])
    ns;
  print_table t;
  reproduce ~vary:[ ("-n", "N"); ("--seed", "5000+N") ] (static (List.hd ns));
  reproduce ~vary:[ ("-n", "N"); ("--seed", "6000+N") ] (dynamic (List.hd ns));
  note "claim: the ratio stays ~1; Theorem 4's proof never uses staticness"
