(* Experiment harness: regenerates every quantitative claim of the paper as
   a table or series (experiments E1-E25 in DESIGN.md / EXPERIMENTS.md),
   plus Bechamel micro-benchmarks of the simulator kernels.

   Usage:
     dune exec bench/main.exe                   (full run, all experiments)
     dune exec bench/main.exe -- --quick        (trimmed sweeps, seconds)
     dune exec bench/main.exe -- E1 E8          (selected experiments)
     dune exec bench/main.exe -- --no-micro     (skip Bechamel section)
     dune exec bench/main.exe -- --jobs 4       (trial parallelism; same
                                                 tables at any job count)
     dune exec bench/main.exe -- --json out.json  (machine-readable results;
                                                 bare --json writes
                                                 BENCH_<date>.json)

   Unknown flags and unknown experiment ids are rejected with a usage
   message and a nonzero exit. *)

module Json = Crn_stats.Json

let experiments =
  [
    ("E1", Exp_broadcast.e1);
    ("E2", Exp_broadcast.e2);
    ("E3", Exp_broadcast.e3);
    ("E4", Exp_baselines.e4);
    ("E5", Exp_broadcast.e5);
    ("E6", Exp_cogcomp.e6);
    ("E7", Exp_baselines.e7);
    ("E8", Exp_games.e8);
    ("E9", Exp_games.e9);
    ("E10", Exp_baselines.e10);
    ("E11", Exp_broadcast.e11);
    ("E12", Exp_misc.e12);
    ("E13", Exp_misc.e13);
    ("E14", Exp_cogcomp.e14);
    ("E15", Exp_games.e15);
    ("E16", Exp_extensions.e16);
    ("E17", Exp_extensions.e17);
    ("E18", Exp_extensions.e18);
    ("E19", Exp_extensions.e19);
    ("E20", Exp_extensions.e20);
    ("E21", Exp_extensions.e21);
    ("E22", Exp_extensions.e22);
    ("E23", Exp_load.e23);
    ("E24", Exp_adversary.e24);
    ("E25", Exp_extensions.e25);
    ("E26", Exp_extensions.e26);
    (* Not a paper experiment: the engine hot-path micro-benchmark
       (allocations/slot and ns/slot, rewritten engines vs their reference
       specifications). `bench/main.exe -- micro --quick --json` is the CI
       smoke invocation that accumulates per-PR perf data points. *)
    ("MICRO", Micro.bench_engine);
  ]

let known_ids = List.map fst experiments

let usage oc =
  Printf.fprintf oc
    "usage: bench/main.exe [OPTIONS] [EXPERIMENT-ID...]\n\
     \n\
     options:\n\
     \  --quick         trimmed sweeps and trial counts (seconds, not minutes)\n\
     \  --no-micro      skip the Bechamel micro-benchmark section\n\
     \                  (the MICRO engine bench is an experiment id instead:\n\
     \                  `main.exe -- micro --quick --json` for the CI smoke)\n\
     \  --jobs N        run trials on N domains (default: %d, the recommended\n\
     \                  domain count; results are identical at any N)\n\
     \  --json [PATH]   also write results as JSON to PATH (default\n\
     \                  BENCH_<yyyy-mm-dd>.json)\n\
     \  --help          this message\n\
     \n\
     One instrumented run's trace and metrics come from the simulator:\n\
     \  crn_sim run -p cogcomp -n 64 -c 16 -k 4 --trials 1 --trace F --metrics M\n\
     \n\
     experiment ids: %s\n"
    (Crn_exec.Pool.default_jobs ())
    (String.concat " " known_ids)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench/main.exe: %s\n\n" msg;
      usage stderr;
      exit 2)
    fmt

let default_json_path () =
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  Printf.sprintf "BENCH_%04d-%02d-%02d.json" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

type config = {
  mutable micro : bool;
  mutable json : string option;
  mutable selected : string list; (* reversed *)
}

let parse_args argv =
  let cfg = { micro = true; json = None; selected = [] } in
  let is_flag a = String.length a > 0 && a.[0] = '-' in
  let is_known_id a = List.mem (String.uppercase_ascii a) known_ids in
  let parse_jobs v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> Bench_util.jobs := n
    | _ -> die "--jobs needs a positive integer, got %S" v
  in
  let rec go = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ ->
        usage stdout;
        exit 0
    | "--quick" :: rest ->
        Bench_util.quick := true;
        go rest
    | "--no-micro" :: rest ->
        cfg.micro <- false;
        go rest
    | "--jobs" :: v :: rest ->
        parse_jobs v;
        go rest
    | [ "--jobs" ] -> die "--jobs needs a value"
    | "--json" :: rest -> (
        (* --json takes an optional PATH: the next token is consumed unless
           it is a flag or an experiment id. *)
        match rest with
        | v :: rest' when (not (is_flag v)) && not (is_known_id v) ->
            cfg.json <- Some v;
            go rest'
        | _ ->
            cfg.json <- Some (default_json_path ());
            go rest)
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
        parse_jobs (String.sub a 7 (String.length a - 7));
        go rest
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--json=" ->
        cfg.json <- Some (String.sub a 7 (String.length a - 7));
        go rest
    | a :: _ when is_flag a -> die "unknown flag %S" a
    | a :: rest ->
        let id = String.uppercase_ascii a in
        if not (List.mem id known_ids) then
          die "unknown experiment id %S; known: %s" a (String.concat " " known_ids);
        cfg.selected <- id :: cfg.selected;
        go rest
  in
  go argv;
  cfg

let () =
  let cfg = parse_args (List.tl (Array.to_list Sys.argv)) in
  let selected = List.rev cfg.selected in
  let to_run =
    if selected = [] then experiments
    else List.filter (fun (id, _) -> List.mem id selected) experiments
  in
  print_endline "Efficient Communication in Cognitive Radio Networks (PODC'15)";
  print_endline "reproduction harness — slot counts are the paper's own unit.";
  if !Bench_util.quick then print_endline "(quick mode: trimmed sweeps and trial counts)";
  Printf.printf "(trial parallelism: --jobs %d; tables are seed-deterministic at any job count)\n"
    !Bench_util.jobs;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (id, run) ->
      let t = Unix.gettimeofday () in
      run ();
      Printf.printf "  [%s done in %.1fs]\n%!" id (Unix.gettimeofday () -. t))
    to_run;
  if cfg.micro && selected = [] then Micro.run ();
  let total = Unix.gettimeofday () -. t0 in
  (match cfg.json with
  | None -> ()
  | Some path ->
      let report =
        Json.Obj
          [
            ("schema", Json.String "crn-bench/1");
            ( "generated_at",
              let tm = Unix.localtime (Unix.gettimeofday ()) in
              Json.String
                (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d"
                   (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
                   tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec) );
            ("ocaml_version", Json.String Sys.ocaml_version);
            ("quick", Json.Bool !Bench_util.quick);
            ("jobs", Json.Int !Bench_util.jobs);
            ( "selected",
              Json.List (List.map (fun (id, _) -> Json.String id) to_run) );
            ("total_wall_s", Json.Float total);
            ("experiments", Bench_util.records_json ());
          ]
      in
      Json.write ~path report;
      Printf.printf "\nwrote %s\n" path);
  Printf.printf "\nall experiments done in %.1fs\n" total
