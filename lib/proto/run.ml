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

type faults = { text : string; build : seed:int64 -> Faults.t }

let faults_text f = f.text

let fault_usage =
  "expected '+'-separated atoms: none | crash:NODE:SLOT | \
   restart:NODE:SLOT:DUR | naps:RATE | churn:MEAN_UP:MEAN_DOWN | spare:NODE \
   (e.g. \"naps:0.05+crash:3:40+spare:0\")"

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
  | [ "crash"; node; slot ] ->
      int_field "NODE" node (fun node ->
          int_field "SLOT" slot (fun from_slot ->
              Ok (`Schedule (fun ~seed:_ -> Faults.crash ~node ~from_slot))))
  | [ "restart"; node; slot; dur ] ->
      int_field "NODE" node (fun node ->
          int_field "SLOT" slot (fun from_slot ->
              int_field "DUR" dur (fun down_for ->
                  if down_for < 1 then fail "DUR in %S must be >= 1" atom
                  else
                    Ok
                      (`Schedule
                        (fun ~seed:_ ->
                          Faults.crash_restart ~node ~from_slot ~down_for)))))
  | [ "naps"; rate ] -> (
      match float_of_string_opt rate with
      | Some r when r >= 0.0 && r < 1.0 ->
          Ok (`Schedule (fun ~seed -> Faults.random_naps ~seed ~rate:r))
      | Some r -> fail "RATE in %S must be in [0, 1), got %g" atom r
      | None -> fail "RATE in %S is not a number: %S" atom rate)
  | [ "churn"; up; down ] -> (
      match (float_of_string_opt up, float_of_string_opt down) with
      | Some mean_up, Some mean_down when mean_up >= 1.0 && mean_down >= 1.0 ->
          Ok (`Schedule (fun ~seed -> Faults.bernoulli_churn ~seed ~mean_up ~mean_down))
      | Some _, Some _ ->
          fail "MEAN_UP and MEAN_DOWN in %S must both be >= 1 (slots)" atom
      | _ -> fail "MEAN_UP:MEAN_DOWN in %S must be numbers" atom)
  | [ "spare"; node ] -> int_field "NODE" node (fun node -> Ok (`Spare node))
  | _ -> fail "unknown fault atom %S" atom

let parse_faults s =
  let atoms = String.split_on_char '+' s |> List.map String.trim in
  let rec go schedules spares = function
    | [] ->
        let build ~seed =
          let base =
            match schedules with
            | [] -> Faults.none
            | first :: rest ->
                List.fold_left
                  (fun acc b -> Faults.union acc (b ~seed))
                  (first ~seed) rest
          in
          List.fold_left (fun acc node -> Faults.spare acc ~node) base spares
        in
        Ok { text = s; build }
    | atom :: rest -> (
        match parse_fault_atom atom with
        | Error _ as e -> e
        | Ok `None -> go schedules spares rest
        | Ok (`Schedule b) -> go (b :: schedules) spares rest
        | Ok (`Spare node) -> go schedules (node :: spares) rest)
  in
  go [] [] atoms

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
  trials : int;
  seed : int;
}

let spec ?(topology = Topology.Shared_plus_random) ?(dynamic = Adversary_lab.Static)
    ?(backend = Runner.Engine) ?faults ?(jam_budget = 0) ?(fault_seed = 1) ?load
    ?(trials = 9) ?(seed = 1) protocol params =
  { protocol; topology; params; dynamic; backend; faults; jam_budget; fault_seed;
    load; trials; seed }

let check_params { Topology.n; c; k } =
  if n < 1 then Error "need n >= 1"
  else if k < 1 || k > c then Error "need 1 <= k <= c"
  else Ok ()

(* Non-static modes must be honored, not silently snapshotted: reject the
   protocols whose capabilities say they cannot. *)
let check_dynamic ~mode ~spec protos =
  Result.bind (Adversary_lab.validate ~mode ~spec) (fun () ->
      match
        List.find_opt (fun p -> not (Protocol.capabilities p).Protocol.dynamic) protos
      with
      | Some p when mode <> Adversary_lab.Static ->
          Error (Protocol.unsupported p ("--dynamic " ^ Adversary_lab.mode_name mode))
      | _ -> Ok ())

(* The jammer of a point. The spectrum size is determined by the topology
   spec, so one probe assignment tells us C. *)
let build_jammer s =
  if s.jam_budget = 0 then Ok None
  else
    let probe = Topology.generate s.topology (Rng.create s.seed) s.params in
    let num_channels = Crn_channel.Assignment.num_channels probe in
    if 2 * s.jam_budget >= num_channels then
      Error
        (Printf.sprintf
           "--jam-budget %d: Theorem 18 needs 2t < C (spectrum here has C=%d \
            channels)"
           s.jam_budget num_channels)
    else
      Ok
        (Some
           (Jammer.random_per_node
              ~seed:(Int64.of_int s.fault_seed)
              ~budget:s.jam_budget ~num_channels))

let ( let* ) = Result.bind

let validate s =
  let* () = check_params s.params in
  let* () =
    if s.jam_budget < 0 then Error "jam budget must be non-negative" else Ok ()
  in
  let* () =
    if s.load <> None && not (Protocol.capabilities s.protocol).Protocol.load then
      Error (Protocol.unsupported s.protocol "load")
    else Ok ()
  in
  let* () = check_dynamic ~mode:s.dynamic ~spec:s.params [ s.protocol ] in
  Result.map ignore (try build_jammer s with Invalid_argument m -> Error m)

let jammer s =
  match build_jammer s with Ok j -> j | Error m -> invalid_arg m

let armed_availability ~mode ~topology ~spec ?trace ~rng () =
  let armed = Adversary_lab.arm ~mode ~topology ~spec ~source:0 ~rng in
  let availability =
    match trace with
    | Some tr when mode <> Adversary_lab.Static ->
        Trace.record tr
          (Trace.Adversary
             { name = "dynamic:" ^ Adversary_lab.mode_name mode; budget = 0 });
        Adversary_lab.instrument ~trace:tr armed.Adversary_lab.availability
    | _ -> armed.Adversary_lab.availability
  in
  (availability, armed.Adversary_lab.rng)

let faults s =
  Option.map (fun f -> f.build ~seed:(Int64.of_int s.fault_seed)) s.faults

(* One run's environment: trial streams arm the topology and the dynamic
   mode first, and the protocol consumes what is left. *)
let env s ~faults ~jammer ?trace ~rng () =
  let availability, rng =
    armed_availability ~mode:s.dynamic ~topology:s.topology ~spec:s.params ?trace
      ~rng ()
  in
  Protocol.env ?faults ?jammer ?trace ?load:s.load ~backend:s.backend
    ~k:s.params.Topology.k ~availability ~rng ()

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

type result = {
  summaries : Protocol.summary array;
  completion : Summary.t;
  completed : int;
  mean_coverage : float;
  latencies : float array option;
  json : Json.t;
}

let point ~pool s =
  (match validate s with Ok () -> () | Error m -> invalid_arg m);
  let faults = faults s and jammer = jammer s in
  let summaries =
    Trials.run ~pool ~trials:s.trials ~seed:s.seed (fun rng ->
        Protocol.run s.protocol (env s ~faults ~jammer ~rng ()))
  in
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
         ("faults", opt (fun f -> Json.String (Faults.to_string f)) faults);
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
  { summaries; completion; completed; mean_coverage; latencies; json }

let instrumented s ~trace =
  ignore
    (Protocol.run s.protocol
       (env s ~faults:(faults s) ~jammer:(jammer s) ~trace ~rng:(Rng.create s.seed) ()))

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
