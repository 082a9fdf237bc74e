module Rng = Crn_prng.Rng
module Trials = Crn_exec.Trials
module Topology = Crn_channel.Topology
module Summary = Crn_stats.Summary
module Json = Crn_stats.Json
module Faults = Crn_radio.Faults
module Jammer = Crn_radio.Jammer
module Trace = Crn_radio.Trace
module Runner = Crn_radio.Runner

(* ---- fault schedule mini-language ---- *)

type faults = {
  text : string;
  schedule : (seed:int64 -> n:int -> Faults.t) option;
      (* None when the only atoms are [jam]. *)
  jam : bool;
}

let faults_text f = f.text

let fault_usage =
  "expected '+'-separated atoms: none | crash:NODE:SLOT | crash:FRACTION | \
   restart:NODE:SLOT:DUR | naps:RATE | churn:MEAN_UP:MEAN_DOWN | spare:NODE | \
   jam (e.g. \"naps:0.05+crash:3:40+spare:0\")"

(* Nodes 1, 2, ... (mod n) crash at slots 2, 4, ...: a [fraction] of the
   nodes, at least one. *)
let staggered_crashes ~fraction ~n =
  if n < 2 then Faults.none
  else
    let crashed = max 1 (int_of_float (Float.round (fraction *. float_of_int n))) in
    let rec build i acc =
      if i > crashed then acc
      else
        build (i + 1)
          (Faults.union acc (Faults.crash ~node:(i mod n) ~from_slot:(2 * i)))
    in
    build 1 Faults.none

let parse_fault_atom atom =
  let fail fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "%s (%s)" m fault_usage)) fmt
  in
  let int_field name s f =
    match int_of_string_opt s with
    | Some v when v >= 0 -> f v
    | Some v -> fail "%s in %S must be >= 0, got %d" name atom v
    | None -> fail "%s in %S is not an integer: %S" name atom s
  in
  match String.split_on_char ':' atom with
  | [ "none" ] -> Ok `None
  | [ "jam" ] -> Ok `Jam
  | [ "crash"; fraction ] -> (
      match float_of_string_opt fraction with
      | Some f when f > 0.0 && f <= 1.0 ->
          Ok (`Schedule (fun ~seed:_ ~n -> staggered_crashes ~fraction:f ~n))
      | Some f -> fail "FRACTION in %S must be in (0, 1], got %g" atom f
      | None -> fail "FRACTION in %S is not a number: %S" atom fraction)
  | [ "crash"; node; slot ] ->
      int_field "NODE" node (fun node ->
          int_field "SLOT" slot (fun from_slot ->
              Ok (`Schedule (fun ~seed:_ ~n:_ -> Faults.crash ~node ~from_slot))))
  | [ "restart"; node; slot; dur ] ->
      int_field "NODE" node (fun node ->
          int_field "SLOT" slot (fun from_slot ->
              int_field "DUR" dur (fun down_for ->
                  if down_for < 1 then fail "DUR in %S must be >= 1" atom
                  else
                    Ok
                      (`Schedule
                        (fun ~seed:_ ~n:_ ->
                          Faults.crash_restart ~node ~from_slot ~down_for)))))
  | [ "naps"; rate ] -> (
      match float_of_string_opt rate with
      | Some r when r >= 0.0 && r < 1.0 ->
          Ok (`Schedule (fun ~seed ~n:_ -> Faults.random_naps ~seed ~rate:r))
      | Some r -> fail "RATE in %S must be in [0, 1), got %g" atom r
      | None -> fail "RATE in %S is not a number: %S" atom rate)
  | [ "churn"; up; down ] -> (
      match (float_of_string_opt up, float_of_string_opt down) with
      | Some mean_up, Some mean_down when mean_up >= 1.0 && mean_down >= 1.0 ->
          Ok
            (`Schedule
              (fun ~seed ~n:_ -> Faults.bernoulli_churn ~seed ~mean_up ~mean_down))
      | Some _, Some _ ->
          fail "MEAN_UP and MEAN_DOWN in %S must both be >= 1 (slots)" atom
      | _ -> fail "MEAN_UP:MEAN_DOWN in %S must be numbers" atom)
  | [ "spare"; node ] -> int_field "NODE" node (fun node -> Ok (`Spare node))
  | _ -> fail "unknown fault atom %S" atom

let parse_faults s =
  let atoms = String.split_on_char '+' s |> List.map String.trim in
  let rec go ~faulted ~jam schedules spares = function
    | [] ->
        let build ~seed ~n =
          let base =
            match schedules with
            | [] -> Faults.none
            | first :: rest ->
                List.fold_left
                  (fun acc b -> Faults.union acc (b ~seed ~n))
                  (first ~seed ~n) rest
          in
          List.fold_left (fun acc node -> Faults.spare acc ~node) base spares
        in
        Ok { text = s; schedule = (if faulted then Some build else None); jam }
    | atom :: rest -> (
        match parse_fault_atom atom with
        | Error _ as e -> e
        | Ok `Jam -> go ~faulted ~jam:true schedules spares rest
        | Ok `None -> go ~faulted:true ~jam schedules spares rest
        | Ok (`Schedule b) -> go ~faulted:true ~jam (b :: schedules) spares rest
        | Ok (`Spare node) -> go ~faulted:true ~jam schedules (node :: spares) rest)
  in
  go ~faulted:false ~jam:false [] [] atoms

(* ---- points ---- *)

let arrivals_laws = [ ("poisson", Protocol.Poisson); ("uniform", Protocol.Uniform) ]

let arrivals_name law = fst (List.find (fun (_, l) -> l = law) arrivals_laws)

type spec = {
  protocol : Protocol.t;
  topology : Topology.kind;
  params : Topology.spec;
  dynamic : Adversary_lab.dynamic_mode;
  backend : Runner.backend;
  faults : faults option;
  jam_budget : int;
  fault_seed : int;
  load : Protocol.load option;
  check : bool;
  trials : int;
  seed : int;
}

let spec ?(topology = Topology.Shared_plus_random) ?(dynamic = Adversary_lab.Static)
    ?(backend = Runner.Engine) ?faults ?(jam_budget = 0) ?(fault_seed = 1) ?load
    ?(check = false) ?(trials = 9) ?(seed = 1) protocol params =
  { protocol; topology; params; dynamic; backend; faults; jam_budget; fault_seed;
    load; check; trials; seed }

let jam_atom s = match s.faults with Some f -> f.jam | None -> false

(* The spectrum size C is determined by the topology spec, so one probe
   assignment tells us. *)
let num_channels s =
  Crn_channel.Assignment.num_channels
    (Topology.generate s.topology (Rng.create s.seed) s.params)

let ( let* ) = Result.bind

let validate s =
  let { Topology.n; c; k } = s.params in
  let* () =
    if n < 1 then Error "need n >= 1"
    else if k < 1 || k > c then Error "need 1 <= k <= c"
    else if s.jam_budget < 0 then Error "jam budget must be non-negative"
    else if s.load <> None && not (Protocol.capabilities s.protocol).Protocol.load then
      Error (Protocol.unsupported s.protocol "load")
    else if s.jam_budget > 0 && jam_atom s then
      Error
        (Printf.sprintf "--faults jam and --jam-budget %d both arm a jammer; use one"
           s.jam_budget)
    else Adversary_lab.validate ~mode:s.dynamic ~spec:s.params
  in
  (* Non-static modes must be honored, not silently snapshotted. *)
  let* () =
    let caps = Protocol.capabilities s.protocol in
    if s.dynamic <> Adversary_lab.Static && not caps.Protocol.dynamic then
      Error
        (Protocol.unsupported s.protocol ("--dynamic " ^ Adversary_lab.mode_name s.dynamic))
    else Ok ()
  in
  if s.jam_budget = 0 && not (jam_atom s) then Ok ()
  else
    try
      let num_channels = num_channels s in
      if 2 * s.jam_budget >= num_channels then
        Error
          (Printf.sprintf
             "--jam-budget %d: Theorem 18 needs 2t < C (spectrum here has C=%d \
              channels)"
             s.jam_budget num_channels)
      else
        match Registry.wrapped s.protocol with
        | None -> Ok ()
        | Some inner ->
            let budget =
              if s.jam_budget > 0 then s.jam_budget else Jammer.budget (Jammer.reactive ())
            in
            Jam_resist.precondition inner ~budget ~num_channels
    with Invalid_argument m -> Error m

(* ---- reading trials ---- *)

let detail_number key (s : Protocol.summary) =
  match Json.member key s.Protocol.detail with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

(* A field some trials left null carries an "(m/T)" count, so its mean is
   never read as covering trials it does not. *)
let detail_means (summaries : Protocol.summary array) =
  let keys =
    match summaries.(0).Protocol.detail with
    | Json.Obj fields -> List.map fst fields
    | _ -> []
  in
  let trials = Array.length summaries in
  List.filter_map
    (fun key ->
      match List.filter_map (detail_number key) (Array.to_list summaries) with
      | [] -> None
      | xs ->
          let m = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
          let v =
            if Float.is_integer m then Printf.sprintf "%.0f" m else Printf.sprintf "%.4g" m
          in
          Some
            (if List.length xs = trials then Printf.sprintf "%s=%s" key v
             else Printf.sprintf "%s=%s (%d/%d)" key v (List.length xs) trials))
    keys

(* ---- running a point ---- *)

type failure = {
  trial : int;
  violations : Trace.Check.violation list;
  trace_jsonl : string;
}

type result = {
  summaries : Protocol.summary array;
  completion : Summary.t;
  completed : int;
  mean_coverage : float;
  latencies : float array option;
  failures : failure list;
  json : Json.t;
}

(* One trial on its stream. A point that arms an adversary draws one word
   first and realizes the trial's faults and fresh jammer from it and the
   fault seed; then the topology and the dynamic mode are armed, and the
   protocol consumes what is left. *)
let trial s ~num_channels ~checker ?trace i rng =
  let faults, jammer =
    if Option.is_none s.faults && s.jam_budget = 0 then (None, None)
    else
      let seed =
        Int64.add (Int64.of_int s.fault_seed)
          (Int64.mul 0x9E3779B97F4A7C15L (Rng.bits64 rng))
      in
      ( Option.bind s.faults (fun f ->
            Option.map (fun build -> build ~seed ~n:s.params.Topology.n) f.schedule),
        if s.jam_budget > 0 then
          Some (Jammer.random_per_node ~seed ~budget:s.jam_budget ~num_channels)
        else if jam_atom s then Some (Jammer.reactive ())
        else None )
  in
  let trace = if Option.is_none trace && s.check then Some (Trace.create ()) else trace in
  (match (trace, jammer) with
  | Some tr, Some j ->
      Trace.record tr (Trace.Adversary { name = Jammer.name j; budget = Jammer.budget j })
  | _ -> ());
  let armed =
    Adversary_lab.arm ~mode:s.dynamic ~topology:s.topology ~spec:s.params ~source:0 ~rng
  in
  let availability =
    match trace with
    | Some tr when s.dynamic <> Adversary_lab.Static ->
        Trace.record tr
          (Trace.Adversary
             { name = "dynamic:" ^ Adversary_lab.mode_name s.dynamic; budget = 0 });
        Adversary_lab.instrument ~trace:tr armed.Adversary_lab.availability
    | _ -> armed.Adversary_lab.availability
  in
  let summary =
    Protocol.run s.protocol
      (Protocol.env ?faults ?jammer ?trace ?load:s.load ~backend:s.backend
         ~k:s.params.Topology.k ~availability ~rng:armed.Adversary_lab.rng ())
  in
  let failure =
    match trace with
    | Some tr when s.check -> (
        match checker tr with
        | [] -> None
        | violations -> Some { trial = i; violations; trace_jsonl = Trace.to_jsonl tr })
    | _ -> None
  in
  (summary, failure)

let point ?(checker = Trace.Check.all) ?trace ~pool s =
  (match validate s with Ok () -> () | Error m -> invalid_arg m);
  let num_channels = if s.jam_budget > 0 then num_channels s else 0 in
  let runs =
    Crn_exec.Pool.run pool
      (Array.mapi
         (fun i rng () ->
           trial s ~num_channels ~checker ?trace:(if i = 0 then trace else None) i rng)
         (Trials.rngs ~seed:s.seed ~trials:s.trials))
  in
  let summaries = Array.map fst runs in
  let failures = List.filter_map snd (Array.to_list runs) in
  let floats f = Array.map f summaries in
  let completion =
    Summary.of_floats
      (floats (fun r ->
           float_of_int
             (Option.value r.Protocol.completed_at ~default:r.Protocol.slots_run)))
  in
  let completed =
    Array.fold_left (fun acc r -> if r.Protocol.completed then acc + 1 else acc) 0 summaries
  in
  let mean_coverage =
    Array.fold_left ( +. ) 0.0 (floats (fun r -> r.Protocol.coverage))
    /. float_of_int s.trials
  in
  let latencies =
    match
      Array.to_list summaries
      |> List.filter_map (fun (r : Protocol.summary) ->
             match Json.member "latencies" r.Protocol.detail with
             | Some (Json.List l) ->
                 Some (List.filter_map (function Json.Float f -> Some f | _ -> None) l)
             | _ -> None)
    with
    | [] -> None
    | reported -> Some (Array.of_list (List.concat reported))
  in
  let { Topology.n; c; k } = s.params in
  let opt f = function Some v -> f v | None -> Json.Null in
  let latency_fields =
    match latencies with
    | None -> []
    | Some l ->
        ("latency_samples", Json.Int (Array.length l))
        :: List.map
             (fun p ->
               ( Printf.sprintf "latency_p%.0f" p,
                 if l = [||] then Json.Null else Json.Float (Summary.percentile l p) ))
             [ 50.0; 95.0; 99.0 ]
  in
  let json =
    Json.Obj
      ([
         ("schema", Json.String "crn-run/1");
         ("protocol", Json.String (Protocol.name s.protocol));
         ("n", Json.Int n);
         ("c", Json.Int c);
         ("k", Json.Int k);
         ("topology", Json.String (Topology.kind_name s.topology));
         ("dynamic", Json.String (Adversary_lab.mode_name s.dynamic));
         ("backend", Json.String (Runner.backend_name s.backend));
         ( "shards",
           Json.Int (match s.backend with Runner.Soa { shards; _ } -> shards | _ -> 1) );
         ("jam_budget", Json.Int s.jam_budget);
         ("faults", opt (fun f -> Json.String f.text) s.faults);
         ("fault_seed", Json.Int s.fault_seed);
         ("trials", Json.Int s.trials);
         ("seed", Json.Int s.seed);
         ( "load",
           opt
             (fun l ->
               Json.Obj
                 [
                   ("rate", Json.Float l.Protocol.rate);
                   ("arrivals", Json.String (arrivals_name l.Protocol.arrivals));
                   ("rumors", Json.Int l.Protocol.rumors);
                 ])
             s.load );
         ("completion_rate", Json.Float (float_of_int completed /. float_of_int s.trials));
         ("mean_coverage", Json.Float mean_coverage);
       ]
      @ latency_fields
      @ [ ("per_trial", Json.List (Array.to_list (Array.map Protocol.summary_json summaries))) ]
      )
  in
  { summaries; completion; completed; mean_coverage; latencies; failures; json }

(* ---- the point as a command line ---- *)

let args s =
  let { Topology.n; c; k } = s.params in
  let int flag v = [ (flag, string_of_int v) ] in
  let some f = Option.fold ~none:[] ~some:f in
  let unless default flag v name = if v = default then [] else [ (flag, name v) ] in
  let backend =
    match s.backend with
    | Runner.Engine -> []
    | Runner.Emulation { session_cap; _ } ->
        ("--backend", Runner.backend_name s.backend) :: some (int "--session-cap") session_cap
    | Runner.Soa { shards; dense_channel_limit } ->
        (("--backend", "soa") :: int "--shards" shards)
        @ some (int "--dense-channel-limit") dense_channel_limit
    | Runner.Reference -> [ ("--backend", "reference") ]
  in
  (("-p", Protocol.name s.protocol) :: int "-n" n)
  @ int "-c" c @ int "-k" k
  @ unless Topology.Shared_plus_random "--topology" s.topology Topology.kind_name
  @ unless Adversary_lab.Static "--dynamic" s.dynamic Adversary_lab.mode_name
  @ backend
  @ some (fun f -> [ ("--faults", f.text) ]) s.faults
  @ unless 0 "--jam-budget" s.jam_budget string_of_int
  @ unless 1 "--fault-seed" s.fault_seed string_of_int
  @ some
      (fun l ->
        [
          ("--rate", Json.to_string (Json.Float l.Protocol.rate));
          ("--arrivals", arrivals_name l.Protocol.arrivals);
          ("--rumors", string_of_int l.Protocol.rumors);
        ])
      s.load
  @ int "--trials" s.trials @ int "--seed" s.seed
  |> List.concat_map (fun (flag, v) -> [ flag; v ])
  |> fun words -> if s.check then words @ [ "--check" ] else words
