(* Tests for the radio simulators: the one-winner contention engine, jammers,
   the raw collision radio and the decay backoff sublayer. *)

module Rng = Crn_prng.Rng
module Assignment = Crn_channel.Assignment
module Dynamic = Crn_channel.Dynamic
module Action = Crn_radio.Action
module Engine = Crn_radio.Engine
module Jammer = Crn_radio.Jammer
module Raw_radio = Crn_radio.Raw_radio
module Backoff = Crn_radio.Backoff
module Csma = Crn_radio.Csma
module Jamming_reduction = Crn_radio.Jamming_reduction

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Everyone shares a single channel: the simplest contention arena. *)
let one_channel n =
  Dynamic.static
    (Assignment.create ~num_channels:1 ~local_to_global:(Array.make n [| 0 |]))

(* Scripted node: fixed decision every slot; collects feedback. *)
let scripted ~id ~decision log =
  Engine.node ~id
    ~decide:(fun ~slot:_ -> decision)
    ~feedback:(fun ~slot:_ fb -> log := fb :: !log)

let test_single_broadcaster_delivers () =
  let log0 = ref [] and log1 = ref [] and log2 = ref [] in
  let nodes =
    [|
      scripted ~id:0 ~decision:(Action.broadcast ~label:0 "hello") log0;
      scripted ~id:1 ~decision:(Action.listen ~label:0) log1;
      scripted ~id:2 ~decision:(Action.listen ~label:0) log2;
    |]
  in
  let outcome =
    Engine.run ~availability:(one_channel 3) ~rng:(Rng.create 1) ~nodes ~max_slots:1 ()
  in
  check_int "one slot" 1 outcome.Engine.slots_run;
  (match !log0 with
  | [ Action.Won ] -> ()
  | _ -> Alcotest.fail "broadcaster should have Won");
  List.iter
    (fun log ->
      match !log with
      | [ Action.Heard { sender = 0; msg = "hello" } ] -> ()
      | _ -> Alcotest.fail "listener should hear the message")
    [ log1; log2 ]

let test_contention_one_winner () =
  (* Two broadcasters: exactly one Won, the other Lost and received the
     winner's message; the listener heard the winner. *)
  let log0 = ref [] and log1 = ref [] and log2 = ref [] in
  let nodes =
    [|
      scripted ~id:0 ~decision:(Action.broadcast ~label:0 "a") log0;
      scripted ~id:1 ~decision:(Action.broadcast ~label:0 "b") log1;
      scripted ~id:2 ~decision:(Action.listen ~label:0) log2;
    |]
  in
  let outcome =
    Engine.run ~availability:(one_channel 3) ~rng:(Rng.create 2) ~nodes ~max_slots:1 ()
  in
  let winner, loser_msg =
    match (!log0, !log1) with
    | [ Action.Won ], [ Action.Lost { winner; msg } ] ->
        check_int "loser learns winner id" 0 winner;
        (0, msg)
    | [ Action.Lost { winner; msg } ], [ Action.Won ] ->
        check_int "loser learns winner id" 1 winner;
        (1, msg)
    | _ -> Alcotest.fail "expected exactly one winner"
  in
  let expected_msg = if winner = 0 then "a" else "b" in
  Alcotest.(check string) "loser receives winner's message" expected_msg loser_msg;
  (match !log2 with
  | [ Action.Heard { sender; msg } ] ->
      check_int "listener heard winner" winner sender;
      Alcotest.(check string) "right message" expected_msg msg
  | _ -> Alcotest.fail "listener should hear");
  check_int "trace contended" 1 outcome.Engine.counters.Crn_radio.Trace.Counters.contended

let test_winner_uniform () =
  (* Over many slots, each of two contenders should win about half. *)
  let wins = Array.make 2 0 in
  let decide _v ~slot:_ = Action.broadcast ~label:0 () in
  let feedback v ~slot:_ = function
    | Action.Won -> wins.(v) <- wins.(v) + 1
    | Action.Lost _ | Action.Heard _ | Action.Silence | Action.Jammed
    | Action.No_winner ->
        ()
  in
  let nodes =
    Array.init 2 (fun v -> Engine.node ~id:v ~decide:(decide v) ~feedback:(feedback v))
  in
  let slots = 4000 in
  ignore
    (Engine.run ~availability:(one_channel 2) ~rng:(Rng.create 3) ~nodes
       ~max_slots:slots ());
  let frac = float_of_int wins.(0) /. float_of_int slots in
  check "wins split evenly" true (frac > 0.45 && frac < 0.55)

let test_silence () =
  let log = ref [] in
  let nodes = [| scripted ~id:0 ~decision:(Action.listen ~label:0) log |] in
  ignore
    (Engine.run ~availability:(one_channel 1) ~rng:(Rng.create 4) ~nodes ~max_slots:3 ());
  check_int "three feedbacks" 3 (List.length !log);
  check "all Silence" true (List.for_all (fun fb -> fb = Action.Silence) !log)

let test_different_channels_isolated () =
  (* Broadcaster on channel 0, listener on channel 1: hears nothing. *)
  let a =
    Assignment.create ~num_channels:2 ~local_to_global:[| [| 0; 1 |]; [| 0; 1 |] |]
  in
  let log = ref [] in
  let nodes =
    [|
      scripted ~id:0 ~decision:(Action.broadcast ~label:0 ()) (ref []);
      scripted ~id:1 ~decision:(Action.listen ~label:1) log;
    |]
  in
  ignore
    (Engine.run ~availability:(Dynamic.static a) ~rng:(Rng.create 5) ~nodes ~max_slots:1 ());
  check "silence on other channel" true (!log = [ Action.Silence ])

let test_label_validation () =
  let nodes = [| scripted ~id:0 ~decision:(Action.listen ~label:7) (ref []) |] in
  check "out-of-range label rejected" true
    (try
       ignore
         (Engine.run ~availability:(one_channel 1) ~rng:(Rng.create 6) ~nodes
            ~max_slots:1 ());
       false
     with Invalid_argument _ -> true)

let test_id_validation () =
  let nodes = [| scripted ~id:5 ~decision:(Action.listen ~label:0) (ref []) |] in
  Alcotest.check_raises "id mismatch" (Invalid_argument "Engine.run: node id mismatch")
    (fun () ->
      ignore
        (Engine.run ~availability:(one_channel 1) ~rng:(Rng.create 6) ~nodes
           ~max_slots:1 ()))

let test_stop_callback () =
  let nodes = [| scripted ~id:0 ~decision:(Action.listen ~label:0) (ref []) |] in
  let outcome =
    Engine.run
      ~stop:(fun ~slot -> slot = 4)
      ~availability:(one_channel 1) ~rng:(Rng.create 7) ~nodes ~max_slots:100 ()
  in
  check_int "stopped after slot index 4" 5 outcome.Engine.slots_run;
  check "flagged early" true outcome.Engine.stopped_early

(* --- Jammer ------------------------------------------------------------- *)

let test_jammer_none () =
  check "none jams nothing" false (Jammer.jams Jammer.none ~slot:0 ~node:0 ~channel:0)

let test_jammer_budget_respected () =
  let j = Jammer.random_per_node ~seed:9L ~budget:3 ~num_channels:10 in
  for slot = 0 to 20 do
    for node = 0 to 4 do
      let jammed =
        Crn_channel.Bitset.cardinal (Jammer.jammed_set j ~slot ~node ~num_channels:10)
      in
      check_int "exactly budget channels jammed" 3 jammed
    done
  done

let test_jammer_deterministic () =
  let j1 = Jammer.random_per_node ~seed:9L ~budget:3 ~num_channels:10 in
  let j2 = Jammer.random_per_node ~seed:9L ~budget:3 ~num_channels:10 in
  for slot = 0 to 10 do
    for node = 0 to 3 do
      for channel = 0 to 9 do
        check "same seed same decisions" true
          (Jammer.jams j1 ~slot ~node ~channel = Jammer.jams j2 ~slot ~node ~channel)
      done
    done
  done

let test_jammer_global_uniform_across_nodes () =
  let j = Jammer.random_global ~seed:5L ~budget:2 ~num_channels:8 in
  for slot = 0 to 10 do
    for channel = 0 to 7 do
      check "same decision for all nodes" true
        (Jammer.jams j ~slot ~node:0 ~channel = Jammer.jams j ~slot ~node:3 ~channel)
    done
  done

let test_sweep_jammer () =
  let j = Jammer.sweep ~budget:2 ~num_channels:6 in
  (* Slot 0 jams channels 0,1; slot 1 jams 2,3; slot 2 jams 4,5; slot 3 wraps. *)
  check "slot0 ch0" true (Jammer.jams j ~slot:0 ~node:0 ~channel:0);
  check "slot0 ch2" false (Jammer.jams j ~slot:0 ~node:0 ~channel:2);
  check "slot1 ch2" true (Jammer.jams j ~slot:1 ~node:0 ~channel:2);
  check "slot3 wraps to ch0" true (Jammer.jams j ~slot:3 ~node:0 ~channel:0)

let test_engine_jamming_absorbs () =
  (* Everything jammed: all actions absorbed; everyone gets Jammed. *)
  let j = Jammer.targeted_low ~budget:1 in
  let log0 = ref [] and log1 = ref [] in
  let nodes =
    [|
      scripted ~id:0 ~decision:(Action.broadcast ~label:0 ()) log0;
      scripted ~id:1 ~decision:(Action.listen ~label:0) log1;
    |]
  in
  let outcome =
    Engine.run ~jammer:j ~availability:(one_channel 2) ~rng:(Rng.create 8) ~nodes
      ~max_slots:2 ()
  in
  check "broadcaster jammed" true (List.for_all (( = ) Action.Jammed) !log0);
  check "listener jammed" true (List.for_all (( = ) Action.Jammed) !log1);
  check_int "trace jammed actions" 4 outcome.Engine.counters.Crn_radio.Trace.Counters.jammed_actions

(* --- Raw radio ----------------------------------------------------------- *)

let raw_scripted ~id ~decision log =
  Raw_radio.node ~id
    ~decide:(fun ~round:_ -> decision)
    ~hear:(fun ~round:_ r -> log := r :: !log)

let test_raw_single_tx () =
  let log = ref [] in
  let nodes =
    [|
      raw_scripted ~id:0 ~decision:(Action.broadcast ~label:0 "m") (ref []);
      raw_scripted ~id:1 ~decision:(Action.listen ~label:0) log;
    |]
  in
  ignore (Raw_radio.run ~availability:(one_channel 2) ~nodes ~max_rounds:1 ());
  match !log with
  | [ Raw_radio.Message { sender = 0; msg = "m" } ] -> ()
  | _ -> Alcotest.fail "expected delivery"

let test_raw_collision_destroys () =
  let log = ref [] in
  let nodes =
    [|
      raw_scripted ~id:0 ~decision:(Action.broadcast ~label:0 "a") (ref []);
      raw_scripted ~id:1 ~decision:(Action.broadcast ~label:0 "b") (ref []);
      raw_scripted ~id:2 ~decision:(Action.listen ~label:0) log;
    |]
  in
  ignore (Raw_radio.run ~availability:(one_channel 3) ~nodes ~max_rounds:1 ());
  check "collision heard as Quiet without CD" true (!log = [ Raw_radio.Quiet ])

let test_raw_collision_detection () =
  let log = ref [] in
  let nodes =
    [|
      raw_scripted ~id:0 ~decision:(Action.broadcast ~label:0 "a") (ref []);
      raw_scripted ~id:1 ~decision:(Action.broadcast ~label:0 "b") (ref []);
      raw_scripted ~id:2 ~decision:(Action.listen ~label:0) log;
    |]
  in
  ignore
    (Raw_radio.run ~collision_detection:true ~availability:(one_channel 3) ~nodes
       ~max_rounds:1 ());
  check "collision heard as Noise with CD" true (!log = [ Raw_radio.Noise ])

let test_raw_transmitter_hears_quiet () =
  let log = ref [] in
  let nodes = [| raw_scripted ~id:0 ~decision:(Action.broadcast ~label:0 "x") log |] in
  ignore (Raw_radio.run ~availability:(one_channel 1) ~nodes ~max_rounds:1 ());
  check "tx cannot hear own message" true (!log = [ Raw_radio.Quiet ])

(* --- Backoff -------------------------------------------------------------- *)

let test_backoff_single () =
  match Backoff.session ~rng:(Rng.create 1) ~contenders:1 ~cap:10 with
  | Some { Backoff.winner = 0; rounds = 1 } -> ()
  | _ -> Alcotest.fail "single contender wins immediately"

let test_backoff_succeeds () =
  let rng = Rng.create 2 in
  for m = 2 to 64 do
    let cap = Backoff.expected_rounds_bound m * 4 in
    match Backoff.session ~rng ~contenders:m ~cap with
    | Some { Backoff.winner; rounds } ->
        check "winner in range" true (winner >= 0 && winner < m);
        check "rounds positive" true (rounds >= 1 && rounds <= cap)
    | None -> Alcotest.failf "session with %d contenders failed within %d rounds" m cap
  done

let test_backoff_mean_within_bound () =
  (* Mean session length should sit well within the O(log² n) budget. *)
  let rng = Rng.create 3 in
  let m = 100 in
  let trials = 200 in
  let total = ref 0 in
  for _ = 1 to trials do
    match Backoff.session ~rng ~contenders:m ~cap:10_000 with
    | Some { Backoff.rounds; _ } -> total := !total + rounds
    | None -> Alcotest.fail "session failed with generous cap"
  done;
  let mean = float_of_int !total /. float_of_int trials in
  check "mean within bound" true
    (mean <= float_of_int (Backoff.expected_rounds_bound m))

let test_backoff_on_raw_radio_agrees () =
  (* The end-to-end raw-radio variant must also succeed and name a valid
     winner. *)
  let rng = Rng.create 4 in
  for m = 2 to 20 do
    let cap = Backoff.expected_rounds_bound m * 8 in
    match Backoff.session_on_raw_radio ~rng ~contenders:m ~cap with
    | Some { Backoff.winner; rounds } ->
        check "winner in range" true (winner >= 0 && winner < m);
        check "positive rounds" true (rounds >= 1)
    | None -> Alcotest.failf "raw-radio session with %d contenders failed" m
  done

(* The 4·(⌈lg n⌉+1)² budget, pinned. The epoch length clamps to >= 2 exactly
   once, so n = 1 and n = 2 share the same 16-round budget and the values
   below cannot regress without the bound itself changing. *)
let test_expected_rounds_bound_pinned () =
  check_int "n=1" 16 (Backoff.expected_rounds_bound 1);
  check_int "n=2" 16 (Backoff.expected_rounds_bound 2);
  check_int "n=3" 36 (Backoff.expected_rounds_bound 3);
  check_int "n=1024" 484 (Backoff.expected_rounds_bound 1024)

(* --- Direct-vs-raw-radio differential property ---------------------------- *)

(* Each contention realization ships two implementations: a direct
   single-channel simulation and the end-to-end run through Raw_radio. They
   must agree exactly — same outcome, same winner, same rounds — and consume
   the shared RNG identically, which we probe by comparing one extra draw
   from each stream after the sessions end. *)

type session_case = { contenders : int; case_seed : int }

let session_case_gen =
  let m_gen = Prop.int_range 1 64 and seed_gen = Prop.int_range 0 9_999 in
  {
    Prop.sample =
      (fun rng ->
        let contenders = m_gen.Prop.sample rng in
        let case_seed = seed_gen.Prop.sample rng in
        { contenders; case_seed });
    shrink =
      (fun t ->
        Seq.append
          (Seq.map
             (fun contenders -> { t with contenders })
             (m_gen.Prop.shrink t.contenders))
          (Seq.map
             (fun case_seed -> { t with case_seed })
             (seed_gen.Prop.shrink t.case_seed)));
    print =
      (fun t ->
        Printf.sprintf "{ contenders = %d; seed = %d }" t.contenders t.case_seed);
  }

let sessions_agree ~direct ~raw ~cap t =
  let seed = (t.case_seed * 2) + 1 in
  let rng_d = Rng.create seed and rng_r = Rng.create seed in
  let a = direct ~rng:rng_d ~contenders:t.contenders ~cap in
  let b = raw ~rng:rng_r ~contenders:t.contenders ~cap in
  let streams_aligned () = Rng.int rng_d 1_000_000 = Rng.int rng_r 1_000_000 in
  match (a, b) with
  | None, None ->
      if streams_aligned () then None
      else Some "rng streams diverged after capped sessions"
  | Some ra, Some rb ->
      if ra.Backoff.winner <> rb.Backoff.winner then
        Some
          (Printf.sprintf "winners differ: direct %d, raw %d" ra.Backoff.winner
             rb.Backoff.winner)
      else if ra.Backoff.rounds <> rb.Backoff.rounds then
        Some
          (Printf.sprintf "rounds differ: direct %d, raw %d" ra.Backoff.rounds
             rb.Backoff.rounds)
      else if not (streams_aligned ()) then
        Some "rng streams diverged after agreeing sessions"
      else None
  | Some _, None -> Some "direct session succeeded, raw-radio twin failed"
  | None, Some _ -> Some "raw-radio twin succeeded, direct session failed"

let test_backoff_direct_vs_raw_property () =
  let direct ~rng ~contenders ~cap = Backoff.session ~rng ~contenders ~cap in
  let raw ~rng ~contenders ~cap =
    Backoff.session_on_raw_radio ~rng ~contenders ~cap
  in
  Prop.check ~count:300 ~name:"backoff: direct = raw radio" session_case_gen
    (fun t ->
      sessions_agree ~direct ~raw
        ~cap:(Backoff.expected_rounds_bound t.contenders * 4)
        t);
  (* Cap exhaustion: with a starvation cap the two paths must fail (or
     scrape through) together and leave the streams aligned either way. *)
  Prop.check ~count:300 ~name:"backoff: direct = raw radio (cap 3)"
    session_case_gen
    (fun t -> sessions_agree ~direct ~raw ~cap:3 t)

let test_csma_direct_vs_raw_property () =
  let direct ~rng ~contenders ~cap = Csma.session ~rng ~contenders ~cap () in
  let raw ~rng ~contenders ~cap =
    Csma.session_on_raw_radio ~rng ~contenders ~cap ()
  in
  Prop.check ~count:300 ~name:"csma: direct = raw radio" session_case_gen
    (fun t ->
      sessions_agree ~direct ~raw
        ~cap:(Backoff.expected_rounds_bound t.contenders * 8)
        t);
  Prop.check ~count:300 ~name:"csma: direct = raw radio (cap 3)"
    session_case_gen
    (fun t -> sessions_agree ~direct ~raw ~cap:3 t)

(* --- CSMA/CA units --------------------------------------------------------- *)

let test_csma_single () =
  match Csma.session ~rng:(Rng.create 1) ~contenders:1 ~cap:10 () with
  | Some { Csma.winner = 0; rounds = 1 } -> ()
  | _ -> Alcotest.fail "single contender wins immediately"

let test_csma_succeeds () =
  let rng = Rng.create 2 in
  for m = 2 to 32 do
    let cap = 5_000 in
    match Csma.session ~rng ~contenders:m ~cap () with
    | Some { Csma.winner; rounds } ->
        check "winner in range" true (winner >= 0 && winner < m);
        (* The ACK round is counted, so a multi-contender win takes >= 2. *)
        check "rounds include the ACK round" true (rounds >= 2 && rounds <= cap)
    | None -> Alcotest.failf "CSMA session with %d contenders failed" m
  done

let test_csma_all_drop_out () =
  (* cw_cap 1 pins every backoff draw to the same window, so the contenders
     collide in lockstep forever; after attempt_limit failures they all drop
     out and the session must fail cleanly rather than loop. *)
  match
    Csma.session ~attempt_limit:2 ~cw_cap:1 ~rng:(Rng.create 3) ~contenders:4
      ~cap:50 ()
  with
  | None -> ()
  | Some _ -> Alcotest.fail "lockstep colliders cannot elect a winner"

let test_csma_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "contenders < 1 rejected" true
    (raises (fun () -> Csma.session ~rng:(Rng.create 1) ~contenders:0 ~cap:10 ()));
  check "cap < 1 rejected" true
    (raises (fun () -> Csma.session ~rng:(Rng.create 1) ~contenders:2 ~cap:0 ()));
  check "attempt_limit < 1 rejected" true
    (raises (fun () ->
         Csma.session ~attempt_limit:0 ~rng:(Rng.create 1) ~contenders:2 ~cap:10 ()));
  check "cw_cap < 1 rejected" true
    (raises (fun () ->
         Csma.session ~cw_cap:0 ~rng:(Rng.create 1) ~contenders:2 ~cap:10 ()));
  check "raw variant validates too" true
    (raises (fun () ->
         Csma.session_on_raw_radio ~rng:(Rng.create 1) ~contenders:0 ~cap:10 ()))

(* --- Faults ----------------------------------------------------------------- *)

module Faults = Crn_radio.Faults

let test_faults_none () =
  check "none never down" false (Faults.down Faults.none ~slot:3 ~node:1)

let test_faults_crash () =
  let f = Faults.crash ~node:2 ~from_slot:5 in
  check "up before" false (Faults.down f ~slot:4 ~node:2);
  check "down at" true (Faults.down f ~slot:5 ~node:2);
  check "down after" true (Faults.down f ~slot:99 ~node:2);
  check "others unaffected" false (Faults.down f ~slot:99 ~node:1)

let test_faults_random_rate () =
  let f = Faults.random_naps ~seed:7L ~rate:0.25 in
  let downs = ref 0 in
  let total = 40_000 in
  for slot = 0 to 199 do
    for node = 0 to 199 do
      if Faults.down f ~slot ~node then incr downs
    done
  done;
  let frac = float_of_int !downs /. float_of_int total in
  check "empirical rate near 0.25" true (frac > 0.23 && frac < 0.27);
  (* Deterministic given the seed. *)
  let f2 = Faults.random_naps ~seed:7L ~rate:0.25 in
  check "deterministic" true
    (Faults.down f ~slot:17 ~node:3 = Faults.down f2 ~slot:17 ~node:3)

let test_faults_periodic () =
  let f = Faults.periodic_nap ~period:10 ~nap:3 ~offset_stride:1 in
  (* Node 0 sleeps slots 0,1,2 of each period. *)
  check "asleep" true (Faults.down f ~slot:0 ~node:0);
  check "asleep" true (Faults.down f ~slot:12 ~node:0);
  check "awake" false (Faults.down f ~slot:5 ~node:0);
  (* Node 1 is shifted by one. *)
  check "staggered" true (Faults.down f ~slot:9 ~node:1)

let test_faults_spare_and_union () =
  let f =
    Faults.spare (Faults.union (Faults.crash ~node:0 ~from_slot:0)
                    (Faults.crash ~node:1 ~from_slot:0))
      ~node:0
  in
  check "spared" false (Faults.down f ~slot:3 ~node:0);
  check "still down" true (Faults.down f ~slot:3 ~node:1)

let test_engine_down_node_absent () =
  (* A broadcaster that is down transmits nothing; the listener hears
     silence; the down node gets no feedback at all. *)
  let f = Faults.crash ~node:0 ~from_slot:0 in
  let log0 = ref [] and log1 = ref [] in
  let nodes =
    [|
      scripted ~id:0 ~decision:(Action.broadcast ~label:0 "x") log0;
      scripted ~id:1 ~decision:(Action.listen ~label:0) log1;
    |]
  in
  ignore
    (Engine.run ~faults:f ~availability:(one_channel 2) ~rng:(Rng.create 9) ~nodes
       ~max_slots:2 ());
  check_int "down node got no feedback" 0 (List.length !log0);
  check "listener heard silence" true (List.for_all (( = ) Action.Silence) !log1)

(* --- Raw radio under adversaries ------------------------------------------- *)

let test_raw_down_node_absent () =
  (* A down node neither transmits nor hears: its callbacks never fire, and
     the listener hears a quiet channel. *)
  let touched = ref false in
  let log1 = ref [] in
  let nodes =
    [|
      Raw_radio.node ~id:0
        ~decide:(fun ~round:_ ->
          touched := true;
          Action.broadcast ~label:0 "x")
        ~hear:(fun ~round:_ _ -> touched := true);
      raw_scripted ~id:1 ~decision:(Action.listen ~label:0) log1;
    |]
  in
  ignore
    (Raw_radio.run
       ~faults:(Faults.crash ~node:0 ~from_slot:0)
       ~availability:(one_channel 2) ~nodes ~max_rounds:1 ());
  check "down node's callbacks never ran" false !touched;
  check "listener hears quiet" true (!log1 = [ Raw_radio.Quiet ])

let jam_node target =
  Jammer.of_fun ~name:"jam-node" ~budget:1 (fun ~slot:_ ~node ~channel:_ ->
      node = target)

let test_raw_jammed_transmitter_absorbed () =
  (* The jammer camps on the transmitter: its frame never reaches the
     channel, so an unjammed listener hears Quiet, not the message. *)
  let log1 = ref [] in
  let nodes =
    [|
      raw_scripted ~id:0 ~decision:(Action.broadcast ~label:0 "x") (ref []);
      raw_scripted ~id:1 ~decision:(Action.listen ~label:0) log1;
    |]
  in
  ignore
    (Raw_radio.run ~jammer:(jam_node 0) ~availability:(one_channel 2) ~nodes
       ~max_rounds:1 ());
  check "frame absorbed" true (!log1 = [ Raw_radio.Quiet ])

let test_raw_jammed_listener_hears_noise () =
  (* The jammer camps on the listener instead: jamming energy is audible, so
     the listener hears Noise even without collision detection, and even
     though a clean frame was on the air. *)
  let log1 = ref [] in
  let nodes =
    [|
      raw_scripted ~id:0 ~decision:(Action.broadcast ~label:0 "x") (ref []);
      raw_scripted ~id:1 ~decision:(Action.listen ~label:0) log1;
    |]
  in
  ignore
    (Raw_radio.run ~jammer:(jam_node 1) ~availability:(one_channel 2) ~nodes
       ~max_rounds:1 ());
  check "jammed listener hears noise" true (!log1 = [ Raw_radio.Noise ])

let test_staggered_activation () =
  let f = Faults.staggered_activation ~activation:[| 0; 3; 10 |] in
  check "node 0 awake from start" false (Faults.down f ~slot:0 ~node:0);
  check "node 1 down at 2" true (Faults.down f ~slot:2 ~node:1);
  check "node 1 up at 3" false (Faults.down f ~slot:3 ~node:1);
  check "node 2 down at 9" true (Faults.down f ~slot:9 ~node:2)

module Metrics = Crn_radio.Metrics

let test_metrics_counts () =
  let m = Metrics.create 2 in
  let nodes =
    [|
      scripted ~id:0 ~decision:(Action.broadcast ~label:0 ()) (ref []);
      scripted ~id:1 ~decision:(Action.listen ~label:0) (ref []);
    |]
  in
  ignore
    (Engine.run ~metrics:m ~availability:(one_channel 2) ~rng:(Rng.create 10) ~nodes
       ~max_slots:5 ());
  check_int "tx counted" 5 m.Metrics.transmissions.(0);
  check_int "no tx for listener" 0 m.Metrics.transmissions.(1);
  check_int "rx counted" 5 m.Metrics.receptions.(1);
  check_int "awake both" 5 m.Metrics.awake_slots.(0);
  check_int "awake both" 5 m.Metrics.awake_slots.(1);
  check_int "totals" 5 (Metrics.total_transmissions m);
  Metrics.reset m;
  check_int "reset" 0 (Metrics.total_transmissions m)

let test_metrics_faulted_not_awake () =
  let m = Metrics.create 1 in
  let f = Faults.crash ~node:0 ~from_slot:2 in
  let nodes = [| scripted ~id:0 ~decision:(Action.listen ~label:0) (ref []) |] in
  ignore
    (Engine.run ~metrics:m ~faults:f ~availability:(one_channel 1)
       ~rng:(Rng.create 11) ~nodes ~max_slots:6 ());
  check_int "only pre-crash slots counted" 2 m.Metrics.awake_slots.(0)

let test_metrics_size_mismatch () =
  let m = Metrics.create 3 in
  let nodes = [| scripted ~id:0 ~decision:(Action.listen ~label:0) (ref []) |] in
  Alcotest.check_raises "sized check"
    (Invalid_argument "Engine.run: metrics sized for a different node count")
    (fun () ->
      ignore
        (Engine.run ~metrics:m ~availability:(one_channel 1) ~rng:(Rng.create 12)
           ~nodes ~max_slots:1 ()))

(* --- Emulation (footnote 4 end-to-end) ---------------------------------------- *)

module Emulation = Crn_radio.Emulation

let test_emulation_single_broadcaster () =
  let log0 = ref [] and log1 = ref [] in
  let nodes =
    [|
      scripted ~id:0 ~decision:(Action.broadcast ~label:0 "m") log0;
      scripted ~id:1 ~decision:(Action.listen ~label:0) log1;
    |]
  in
  let outcome =
    Emulation.run ~availability:(one_channel 2) ~rng:(Rng.create 1) ~nodes
      ~max_slots:1 ()
  in
  check "winner won" true (!log0 = [ Action.Won ]);
  (match !log1 with
  | [ Action.Heard { sender = 0; msg = "m" } ] -> ()
  | _ -> Alcotest.fail "listener should hear");
  check_int "no failed sessions" 0 outcome.Emulation.failed_sessions;
  check "raw rounds at least one" true (outcome.Emulation.raw_rounds >= 1)

let test_emulation_contention_unique_winner () =
  let wins = ref 0 and losses = ref 0 in
  let feedback _v ~slot:_ = function
    | Action.Won -> incr wins
    | Action.Lost _ -> incr losses
    | Action.Heard _ | Action.Silence | Action.Jammed | Action.No_winner -> ()
  in
  let nodes =
    Array.init 6 (fun v ->
        Engine.node ~id:v
          ~decide:(fun ~slot:_ -> Action.broadcast ~label:0 v)
          ~feedback:(feedback v))
  in
  let outcome =
    Emulation.run ~availability:(one_channel 6) ~rng:(Rng.create 2) ~nodes
      ~max_slots:10 ()
  in
  check_int "one winner per successful slot" (10 - outcome.Emulation.failed_sessions) !wins;
  check_int "losers per slot" (5 * (10 - outcome.Emulation.failed_sessions)) !losses;
  check "raw rounds exceed slots (contention costs)" true
    (outcome.Emulation.raw_rounds >= outcome.Emulation.slots_run)

let test_emulation_raw_round_bound () =
  (* Raw rounds per slot stay within the session cap. *)
  let n = 16 in
  let nodes =
    Array.init n (fun v ->
        Engine.node ~id:v
          ~decide:(fun ~slot:_ -> Action.broadcast ~label:0 v)
          ~feedback:(fun ~slot:_ _ -> ()))
  in
  let cap = Crn_radio.Backoff.expected_rounds_bound n in
  let outcome =
    Emulation.run ~availability:(one_channel n) ~rng:(Rng.create 3) ~nodes
      ~max_slots:50 ()
  in
  check "bounded by cap per slot" true (outcome.Emulation.raw_rounds <= 50 * cap)

(* Every slot-loop entry point rejects bad run parameters up front, naming
   itself rather than the loop it fronts. *)
let test_run_argument_validation () =
  let module Reference = Crn_radio.Reference in
  let nodes = [| scripted ~id:0 ~decision:(Action.listen ~label:0) (ref []) |] in
  let availability = one_channel 1 in
  let raises msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  raises "Engine.run: negative max_slots" (fun () ->
      Engine.run ~availability ~rng:(Rng.create 1) ~nodes ~max_slots:(-1) ());
  raises "Emulation.run: negative max_slots" (fun () ->
      Emulation.run ~availability ~rng:(Rng.create 1) ~nodes ~max_slots:(-1) ());
  raises "Reference.engine_run: negative max_slots" (fun () ->
      Reference.engine_run ~availability ~rng:(Rng.create 1) ~nodes
        ~max_slots:(-1) ());
  raises "Reference.emulation_run: negative max_slots" (fun () ->
      Reference.emulation_run ~availability ~rng:(Rng.create 1) ~nodes
        ~max_slots:(-1) ());
  raises "Emulation.run: session_cap must be >= 1" (fun () ->
      Emulation.run ~session_cap:0 ~availability ~rng:(Rng.create 1) ~nodes
        ~max_slots:1 ());
  raises "Reference.emulation_run: session_cap must be >= 1" (fun () ->
      Reference.emulation_run ~session_cap:0 ~availability ~rng:(Rng.create 1)
        ~nodes ~max_slots:1 ())

(* --- Jamming reduction ----------------------------------------------------- *)

let test_reduction_availability_dims () =
  let jammer = Jammer.random_per_node ~seed:4L ~budget:3 ~num_channels:12 in
  let d =
    Jamming_reduction.availability_of_jammer ~num_nodes:5 ~num_channels:12 ~jammer ()
  in
  check_int "c = C - budget" 9 (Dynamic.channels_per_node d);
  for slot = 0 to 5 do
    let a = Dynamic.at d slot in
    (* No channel in any node's set is jammed at that node. *)
    for node = 0 to 4 do
      for label = 0 to 8 do
        let ch = Assignment.global_of_local a ~node ~label in
        check "open channel" false (Jammer.jams jammer ~slot ~node ~channel:ch)
      done
    done;
    check "overlap >= C - 2k'" true
      (Assignment.min_pairwise_overlap a
      >= Jamming_reduction.overlap_guarantee ~num_channels:12 ~budget:3)
  done

let test_reduction_rejects_big_budget () =
  let jammer = Jammer.targeted_low ~budget:12 in
  Alcotest.check_raises "budget too large"
    (Invalid_argument "Jamming_reduction: jammer budget must be below num_channels")
    (fun () ->
      ignore
        (Jamming_reduction.availability_of_jammer ~num_nodes:2 ~num_channels:12 ~jammer ()))

let prop_trace_matches_observed =
  (* The trace's delivery counter must equal the number of Heard feedbacks
     nodes actually observed, and wins must equal Won feedbacks. *)
  QCheck.Test.make ~name:"trace counters match node observations" ~count:100
    QCheck.(triple small_int (int_range 2 10) (int_range 1 12))
    (fun (seed, n, slots) ->
      let heard = ref 0 and won = ref 0 in
      let rng = Rng.create (seed + 77) in
      let node_rngs = Rng.split_n rng n in
      let decide v ~slot:_ =
        if Rng.bernoulli node_rngs.(v) 0.4 then Action.broadcast ~label:0 ()
        else Action.listen ~label:0
      in
      let feedback _v ~slot:_ = function
        | Action.Heard _ -> incr heard
        | Action.Won -> incr won
        | Action.Lost _ | Action.Silence | Action.Jammed
        | Action.No_winner ->
            ()
      in
      let nodes =
        Array.init n (fun v -> Engine.node ~id:v ~decide:(decide v) ~feedback:(feedback v))
      in
      let outcome =
        Engine.run ~availability:(one_channel n) ~rng ~nodes ~max_slots:slots ()
      in
      outcome.Engine.counters.Crn_radio.Trace.Counters.deliveries = !heard
      && outcome.Engine.counters.Crn_radio.Trace.Counters.wins = !won)

let prop_emulation_one_feedback_per_slot =
  QCheck.Test.make ~name:"emulation: one feedback per node per slot" ~count:60
    QCheck.(triple small_int (int_range 1 8) (int_range 1 8))
    (fun (seed, n, slots) ->
      let counts = Array.make n 0 in
      let rng = Rng.create (seed + 55) in
      let node_rngs = Rng.split_n rng n in
      let decide v ~slot:_ =
        if Rng.bool node_rngs.(v) then Action.broadcast ~label:0 ()
        else Action.listen ~label:0
      in
      let feedback v ~slot:_ _ = counts.(v) <- counts.(v) + 1 in
      let nodes =
        Array.init n (fun v -> Engine.node ~id:v ~decide:(decide v) ~feedback:(feedback v))
      in
      ignore (Emulation.run ~availability:(one_channel n) ~rng ~nodes ~max_slots:slots ());
      Array.for_all (fun c -> c = slots) counts)

let prop_engine_conserves_feedback =
  (* Every node gets exactly one feedback per slot, whatever the decisions. *)
  QCheck.Test.make ~name:"one feedback per node per slot" ~count:100
    QCheck.(triple small_int (int_range 1 8) (int_range 1 10))
    (fun (seed, n, slots) ->
      let counts = Array.make n 0 in
      let rng = Rng.create seed in
      let node_rngs = Rng.split_n rng n in
      let decide v ~slot:_ =
        if Rng.bool node_rngs.(v) then Action.broadcast ~label:0 ()
        else Action.listen ~label:0
      in
      let feedback v ~slot:_ _ = counts.(v) <- counts.(v) + 1 in
      let nodes =
        Array.init n (fun v -> Engine.node ~id:v ~decide:(decide v) ~feedback:(feedback v))
      in
      ignore (Engine.run ~availability:(one_channel n) ~rng ~nodes ~max_slots:slots ());
      Array.for_all (fun c -> c = slots) counts)

(* --- Fault provenance and the robust-drain building blocks ----------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_faults_to_string_provenance () =
  let a = Faults.crash ~node:3 ~from_slot:7 in
  let b = Faults.random_naps ~seed:11L ~rate:0.1 in
  let u = Faults.union a b in
  let s = Faults.to_string u in
  check "union keeps left operand" true (contains ~needle:(Faults.to_string a) s);
  check "union keeps right operand" true (contains ~needle:(Faults.to_string b) s);
  let sp = Faults.to_string (Faults.spare u ~node:0) in
  check "spare keeps inner schedule" true (contains ~needle:s sp);
  check "none renders" true (String.length (Faults.to_string Faults.none) > 0)

let test_faults_crash_restart () =
  let f = Faults.crash_restart ~node:4 ~from_slot:10 ~down_for:5 in
  check "up before window" false (Faults.down f ~slot:9 ~node:4);
  check "down at start" true (Faults.down f ~slot:10 ~node:4);
  check "down inside window" true (Faults.down f ~slot:14 ~node:4);
  check "back up at end" false (Faults.down f ~slot:15 ~node:4);
  check "up long after" false (Faults.down f ~slot:100 ~node:4);
  check "others unaffected" false (Faults.down f ~slot:12 ~node:3)

let test_faults_bernoulli_churn () =
  let mean_up = 40. and mean_down = 10. in
  let f = Faults.bernoulli_churn ~seed:21L ~mean_up ~mean_down in
  let g = Faults.bernoulli_churn ~seed:21L ~mean_up ~mean_down in
  let nodes = 8 and slots = 4000 in
  (* All nodes start up. *)
  for v = 0 to nodes - 1 do
    check "up at slot 0" false (Faults.down f ~slot:0 ~node:v)
  done;
  (* Two instances with the same seed replay the same schedule, even when
     queried in different orders (the chain is memoized internally). *)
  let downs = ref 0 in
  for slot = 0 to slots - 1 do
    for v = 0 to nodes - 1 do
      let d = Faults.down f ~slot ~node:v in
      if d then incr downs;
      check "deterministic across instances" d (Faults.down g ~slot ~node:v)
    done
  done;
  (* Stationary down fraction is mean_down / (mean_up + mean_down) = 0.2. *)
  let frac = float_of_int !downs /. float_of_int (nodes * slots) in
  let expected = mean_down /. (mean_up +. mean_down) in
  check "stationary down fraction"
    true
    (Float.abs (frac -. expected) < 0.08)

let test_backoff_retry_delay () =
  check_int "attempt 0" 1 (Backoff.retry_delay ~attempt:0 ~cap:64);
  check_int "attempt 3" 8 (Backoff.retry_delay ~attempt:3 ~cap:64);
  check_int "caps" 64 (Backoff.retry_delay ~attempt:10 ~cap:64);
  check_int "huge attempt saturates" 4 (Backoff.retry_delay ~attempt:200 ~cap:4);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "negative attempt rejected" true
    (raises (fun () -> Backoff.retry_delay ~attempt:(-1) ~cap:4));
  check "cap < 1 rejected" true
    (raises (fun () -> Backoff.retry_delay ~attempt:0 ~cap:0))

let test_jammer_reactive () =
  let j = Jammer.reactive () in
  check "reactive observes" true (Jammer.observes j);
  check "oblivious does not" false (Jammer.observes Jammer.none);
  check_int "budget 1" 1 (Jammer.budget j);
  (* Before any observation nothing is jammed. *)
  for ch = 0 to 3 do
    check "quiet before first observe" false (Jammer.jams j ~slot:0 ~node:0 ~channel:ch)
  done;
  (* After observing, the busiest channel is jammed at every node. *)
  Jammer.observe j ~slot:0 [ (1, 2); (3, 5) ];
  check "jams busiest" true (Jammer.jams j ~slot:1 ~node:0 ~channel:3);
  check "same at every node" true (Jammer.jams j ~slot:1 ~node:7 ~channel:3);
  check "spares the rest" false (Jammer.jams j ~slot:1 ~node:0 ~channel:1);
  (* Ties break toward the smallest channel id. *)
  Jammer.observe j ~slot:1 [ (2, 4); (0, 4) ];
  check "tie -> low channel" true (Jammer.jams j ~slot:2 ~node:0 ~channel:0);
  check "tie loser spared" false (Jammer.jams j ~slot:2 ~node:0 ~channel:2)

let test_jammer_reactive_in_engine () =
  (* End to end: a reactive jammer fed by the engine's occupancy scan jams
     the broadcaster's channel one slot after hearing it. A jammed
     broadcaster is inaudible, so the jammer loses its target and the
     pattern alternates Heard / Jammed. *)
  let j = Jammer.reactive () in
  let log = ref [] in
  let nodes =
    [|
      scripted ~id:0 ~decision:(Action.broadcast ~label:0 "x") (ref []);
      scripted ~id:1 ~decision:(Action.listen ~label:0) log;
    |]
  in
  ignore
    (Engine.run ~jammer:j ~availability:(one_channel 2) ~rng:(Rng.create 12) ~nodes
       ~max_slots:4 ());
  match List.rev !log with
  | [ s0; s1; s2; s3 ] ->
      let heard = function Action.Heard _ -> true | _ -> false in
      check "slot 0 delivered" true (heard s0);
      check "slot 1 jammed" true (s1 = Action.Jammed);
      check "slot 2 delivered again" true (heard s2);
      check "slot 3 jammed again" true (s3 = Action.Jammed)
  | fb -> Alcotest.failf "expected 4 feedbacks, got %d" (List.length fb)

let () =
  Alcotest.run "crn_radio"
    [
      ( "engine",
        [
          Alcotest.test_case "single broadcaster delivers" `Quick
            test_single_broadcaster_delivers;
          Alcotest.test_case "contention: one winner" `Quick test_contention_one_winner;
          Alcotest.test_case "winner uniform" `Quick test_winner_uniform;
          Alcotest.test_case "silence" `Quick test_silence;
          Alcotest.test_case "channel isolation" `Quick test_different_channels_isolated;
          Alcotest.test_case "label validation" `Quick test_label_validation;
          Alcotest.test_case "id validation" `Quick test_id_validation;
          Alcotest.test_case "stop callback" `Quick test_stop_callback;
          QCheck_alcotest.to_alcotest prop_engine_conserves_feedback;
          QCheck_alcotest.to_alcotest prop_trace_matches_observed;
        ] );
      ( "jammer",
        [
          Alcotest.test_case "none" `Quick test_jammer_none;
          Alcotest.test_case "budget respected" `Quick test_jammer_budget_respected;
          Alcotest.test_case "deterministic" `Quick test_jammer_deterministic;
          Alcotest.test_case "global uniform" `Quick test_jammer_global_uniform_across_nodes;
          Alcotest.test_case "sweep pattern" `Quick test_sweep_jammer;
          Alcotest.test_case "engine absorbs jammed actions" `Quick test_engine_jamming_absorbs;
          Alcotest.test_case "reactive" `Quick test_jammer_reactive;
          Alcotest.test_case "reactive in engine" `Quick test_jammer_reactive_in_engine;
        ] );
      ( "faults",
        [
          Alcotest.test_case "none" `Quick test_faults_none;
          Alcotest.test_case "crash" `Quick test_faults_crash;
          Alcotest.test_case "random rate" `Quick test_faults_random_rate;
          Alcotest.test_case "periodic nap" `Quick test_faults_periodic;
          Alcotest.test_case "spare/union" `Quick test_faults_spare_and_union;
          Alcotest.test_case "engine: down node absent" `Quick test_engine_down_node_absent;
          Alcotest.test_case "staggered activation" `Quick test_staggered_activation;
          Alcotest.test_case "to_string provenance" `Quick test_faults_to_string_provenance;
          Alcotest.test_case "crash/restart window" `Quick test_faults_crash_restart;
          Alcotest.test_case "bernoulli churn" `Quick test_faults_bernoulli_churn;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counts;
          Alcotest.test_case "faulted slots not awake" `Quick test_metrics_faulted_not_awake;
          Alcotest.test_case "size mismatch" `Quick test_metrics_size_mismatch;
        ] );
      ( "raw radio",
        [
          Alcotest.test_case "single tx delivers" `Quick test_raw_single_tx;
          Alcotest.test_case "collision destroys" `Quick test_raw_collision_destroys;
          Alcotest.test_case "collision detection" `Quick test_raw_collision_detection;
          Alcotest.test_case "tx hears quiet" `Quick test_raw_transmitter_hears_quiet;
          Alcotest.test_case "down node absent" `Quick test_raw_down_node_absent;
          Alcotest.test_case "jammed tx absorbed" `Quick
            test_raw_jammed_transmitter_absorbed;
          Alcotest.test_case "jammed listener hears noise" `Quick
            test_raw_jammed_listener_hears_noise;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "single contender" `Quick test_backoff_single;
          Alcotest.test_case "sessions succeed" `Quick test_backoff_succeeds;
          Alcotest.test_case "mean within O(log^2 n)" `Quick test_backoff_mean_within_bound;
          Alcotest.test_case "raw-radio variant agrees" `Quick test_backoff_on_raw_radio_agrees;
          Alcotest.test_case "retry delay" `Quick test_backoff_retry_delay;
          Alcotest.test_case "expected_rounds_bound pinned" `Quick
            test_expected_rounds_bound_pinned;
          Alcotest.test_case "direct = raw radio (property)" `Quick
            test_backoff_direct_vs_raw_property;
        ] );
      ( "csma",
        [
          Alcotest.test_case "single contender" `Quick test_csma_single;
          Alcotest.test_case "sessions succeed" `Quick test_csma_succeeds;
          Alcotest.test_case "lockstep colliders all drop" `Quick test_csma_all_drop_out;
          Alcotest.test_case "argument validation" `Quick test_csma_validation;
          Alcotest.test_case "direct = raw radio (property)" `Quick
            test_csma_direct_vs_raw_property;
        ] );
      ( "emulation",
        [
          Alcotest.test_case "single broadcaster" `Quick test_emulation_single_broadcaster;
          Alcotest.test_case "contention unique winner" `Quick
            test_emulation_contention_unique_winner;
          Alcotest.test_case "raw round bound" `Quick test_emulation_raw_round_bound;
          Alcotest.test_case "run argument validation" `Quick
            test_run_argument_validation;
          QCheck_alcotest.to_alcotest prop_emulation_one_feedback_per_slot;
        ] );
      ( "jamming reduction",
        [
          Alcotest.test_case "availability dimensions" `Quick test_reduction_availability_dims;
          Alcotest.test_case "rejects oversized budget" `Quick test_reduction_rejects_big_budget;
        ] );
    ]
