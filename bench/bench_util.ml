(* Shared helpers for the experiment harness: quick-mode trimming, the
   parallel trial runner, registry points through Crn_proto.Run, and the
   per-experiment recorder behind --json. *)

module Rng = Crn_prng.Rng
module Summary = Crn_stats.Summary
module Table = Crn_stats.Table
module Series = Crn_stats.Series
module Json = Crn_stats.Json
module Pool = Crn_exec.Pool
module Trials = Crn_exec.Trials
module Run = Crn_proto.Run

(* Global flags, set by main from the command line before any experiment
   runs: quick trims trial counts and sweep ranges; jobs sizes the domain
   pool shared by every experiment. *)
let quick = ref false
let jobs = ref (Pool.default_jobs ())

(* The pool is created on first use, i.e. after main has parsed --jobs. *)
let pool = lazy (Pool.create ~jobs:!jobs)

let trials ~full = if !quick then max 3 (full / 3) else full

(* ---- per-experiment record (the --json layer) ---- *)

type record = {
  id : string;
  title : string;
  mutable tables : Json.t list; (* reversed *)
  mutable notes : string list; (* reversed *)
  mutable trials_run : int;
  mutable wall_s : float;
  started : float;
}

let records : record list ref = ref [] (* reversed *)
let current : record option ref = ref None

let finish_current () =
  match !current with
  | None -> ()
  | Some r ->
      r.wall_s <- Unix.gettimeofday () -. r.started;
      records := r :: !records;
      current := None

let header id title =
  finish_current ();
  current :=
    Some
      {
        id;
        title;
        tables = [];
        notes = [];
        trials_run = 0;
        wall_s = 0.0;
        started = Unix.gettimeofday ();
      };
  let line = Printf.sprintf "[%s] %s" id title in
  print_newline ();
  print_endline (String.make (String.length line) '=');
  print_endline line;
  print_endline (String.make (String.length line) '=')

let note fmt =
  Printf.ksprintf
    (fun s ->
      (match !current with Some r -> r.notes <- s :: r.notes | None -> ());
      Printf.printf "  %s\n" s)
    fmt

let print_table ?title t =
  Table.print ?title t;
  match !current with
  | Some r -> r.tables <- Json.of_table ?title t :: r.tables
  | None -> ()

(* [records_json ()] finalizes the experiment in progress and returns every
   recorded experiment, in run order, as JSON objects. *)
let records_json () =
  finish_current ();
  Json.List
    (List.rev_map
       (fun r ->
         Json.Obj
           [
             ("id", Json.String r.id);
             ("title", Json.String r.title);
             ("wall_s", Json.Float r.wall_s);
             ("trials", Json.Int r.trials_run);
             ("tables", Json.List (List.rev r.tables));
             ("notes", Json.List (List.rev_map (fun n -> Json.String n) r.notes));
           ])
       !records)

(* ---- parallel trials ---- *)

let count_trials trials =
  match !current with
  | Some r -> r.trials_run <- r.trials_run + trials
  | None -> ()

(* [run_trials ~trials ~base_seed f] runs [f] once per trial on the shared
   pool, one pre-split RNG stream per trial, so the result array is
   identical at any --jobs value (see Crn_exec.Trials). *)
let run_trials ~trials ~base_seed f =
  count_trials trials;
  Trials.run ~pool:(Lazy.force pool) ~trials ~seed:base_seed f

(* Median / mean over [trials] parallel runs of [f rng]; each run must
   return a slot or round count. *)
let median_of ~trials ~base_seed f =
  Summary.median (Array.map float_of_int (run_trials ~trials ~base_seed f))

let mean_of ~trials ~base_seed f =
  Summary.mean (Array.map float_of_int (run_trials ~trials ~base_seed f))

(* ---- registry points ---- *)

(* [point spec] runs one registry point on the shared pool: the trials
   `crn_sim run` runs for the same flags, identical at any --jobs. *)
let point spec =
  count_trials spec.Run.trials;
  Run.point ~pool:(Lazy.force pool) spec

let median r = r.Run.completion.Summary.median

(* The mean over a point's trials of [f] of each trial's summary. *)
let mean_over r f =
  Array.fold_left (fun acc s -> acc +. f s) 0.0 r.Run.summaries
  /. float_of_int (Array.length r.Run.summaries)

(* A trial's numeric detail field, 0 when it reports none. *)
let detail key s = Option.value ~default:0.0 (Run.detail_number key s)

(* Notes the `crn_sim run` line that reproduces a table's rows: [spec]'s
   flags, with the values that change from row to row (and the seed, as the
   experiment's formula) spelled as [vary] gives them. *)
let reproduce ~vary spec =
  let value (flag, v) = [ flag; Option.value (List.assoc_opt flag vary) ~default:v ] in
  note "reproduce: crn_sim run %s"
    (String.concat " " (List.concat_map value (Run.args spec)))

let fmt_f x = Printf.sprintf "%.1f" x
let fmt_f2 x = Printf.sprintf "%.2f" x
