module Assignment = Crn_channel.Assignment
module Action = Crn_radio.Action
module Machine = Crn_radio.Machine
module Trace = Crn_radio.Trace
module Backoff = Crn_radio.Backoff
module Runner = Crn_radio.Runner

type 'a result = {
  complete : bool;
  root_value : 'a;
  coverage : int;
  lost : int list;
  reelections : int;
  retries : int;
  phase1_slots : int;
  phase2_slots : int;
  phase3_slots : int;
  phase4_steps : int;
  phase4_slots : int;
  total_slots : int;
  tree : Disttree.t;
  mediators : int list;
  terminated : bool array;
  counters : Trace.Counters.t;
  raw_rounds : int;
  failed_sessions : int;
}

(* The robust protocol must behave *bit-identically* to plain COGCOMP on
   fault-free inputs (same root value, same per-phase slot counts, same RNG
   stream). The design rule that makes this hold by construction: every
   robust deviation — watchdog write-offs, mediator re-election, send
   backoff, retry abandonment — is gated behind a counter that (a) only
   advances on observations, and (b) is only armed when a fault schedule or
   jammer is actually installed. With neither installed, every decision the
   state machine makes is the plain protocol's decision. *)

(* The retry backoff cap is deliberately small: contention is resolved by
   the one-winner engine, so backoff here only spaces out retries against a
   dead receiver. It must stay below [timeout], or a backed-off but live
   sender looks dead to the mediator's head-skip watchdog. *)
let backoff_cap = 4
let grace_slots = 96

(* Phase 1, the phase runners and the phase-3 rewind are plain
   COGCOMP's ({!Cogcomp.phase1}, {!Cogcomp.run_phase3}); only phases 2 and
   4 differ. *)

(* ------------------------------------------------------------------ *)
(* Phase 2 with a watchdog: the phase keeps running past the plain n
   slots (up to a bounded budget) while some participant has not yet won
   its roster slot; a participant that exhausts the budget is written
   off — absent from every roster, it is excluded from phase 4.         *)
(* ------------------------------------------------------------------ *)

type phase2_info = {
  p2_r : int;  (* own cluster slot; -1 for non-participants *)
  cluster_size : int;
  wrote_off : bool;
  (* Succession order for the channel's mediatorship: the elected mediator
     (smallest id in the channel's latest cluster) first, then the
     remaining roster ids ascending — "the next-smallest live id". *)
  candidates : int array;
  my_rank : int;  (* index of this node in its own [candidates]; -1 if none *)
  (* Every participant's copy of the channel's clusters as
     (r, undelivered count), descending r — any candidate may have to
     mediate, so everyone tracks what the plain protocol computes only for
     the mediator. *)
  clusters_all : (int * int) list;
}

let run_phase2 ~(cast : Cogcast.result) ~watchdog_retries ~runner =
  let c =
    Cogcomp.collect_rosters ~cast ~rounds:(1 + watchdog_retries) ~runner
  in
  let info =
    Array.init cast.Cogcast.n (fun v ->
        match c.Cogcomp.participant.(v) with
        | None ->
            {
              p2_r = -1;
              cluster_size = 0;
              wrote_off = false;
              candidates = [||];
              my_rank = -1;
              clusters_all = [];
            }
        | Some (r, _) ->
            let roster = c.Cogcomp.rosters.(v) in
            let cluster_size, mediator_id = Cogcomp.elect ~r roster in
            let rest =
              List.sort compare
                (List.filter_map
                   (fun (id, _) -> if id <> mediator_id then Some id else None)
                   roster)
            in
            let candidates = Array.of_list (mediator_id :: rest) in
            let my_rank =
              let rank = ref (-1) in
              Array.iteri (fun i id -> if id = v then rank := i) candidates;
              !rank
            in
            let by_r : (int, int) Hashtbl.t = Hashtbl.create 8 in
            List.iter
              (fun (_, r') ->
                Hashtbl.replace by_r r'
                  (1 + Option.value ~default:0 (Hashtbl.find_opt by_r r')))
              roster;
            let clusters_all =
              Hashtbl.fold (fun r' count acc -> (r', count) :: acc) by_r []
              |> List.sort (fun (a, _) (b, _) -> compare b a)
            in
            {
              p2_r = r;
              cluster_size;
              wrote_off = not c.Cogcomp.sent_ok.(v);
              candidates;
              my_rank;
              clusters_all;
            })
  in
  (info, c.Cogcomp.slots_run)

(* ------------------------------------------------------------------ *)
(* Phase 4: mediated drain with acks, bounded retries, re-election.     *)
(* ------------------------------------------------------------------ *)

type 'a phase4_msg =
  | Announce of int
  | Values of { val_r : int; val_id : int; payload : 'a }
  | Echo of int

type role = Collecting | Sending | Mediating | Done

type 'a node_state = {
  mutable role : role;
  mutable acc : 'a;
  mutable to_collect : (int * int * int) list;  (* (r, label, size) desc r *)
  mutable remaining : int;
  (* (sender id, fresh, echo label, cluster slot): fresh deliveries fold and
     count; stale ones are re-acks of a value already folded — the sender
     missed its first echo. The label is captured at fold time so a re-ack
     goes out on the cluster's own channel even if the receiver has since
     moved on. *)
  mutable pending_echo : (int * bool * int * int) option;
  seen : (int, unit) Hashtbl.t;  (* sender ids already folded, the dedup *)
  own_r : int;
  own_label : int;
  mutable announce_matches : bool;
  mutable sent_done : bool;
  (* Mediation: [candidates.(med_idx)] is whom this node currently believes
     mediates its channel; the node itself mediates when that is its own
     rank. *)
  candidates : int array;
  my_rank : int;
  mutable med_idx : int;
  mutable was_active_med : bool;
  med_label : int;
  mutable chan_clusters : (int * int) list;  (* (r, undelivered), desc r *)
  (* Watchdog counters — armed only on faulty runs. *)
  mutable attempts : int;  (* sends that observed a silent echo slot *)
  mutable next_send_step : int;  (* backoff gate *)
  mutable sent_this_step : bool;
  mutable heard_announce_ever : bool;
  mutable announce_silence : int;  (* steps, after the channel went live *)
  mutable waiting_steps : int;  (* steps with no announce at all *)
  mutable unmediated : bool;  (* candidate list exhausted: free-for-all *)
  mutable recv_active : bool;  (* any activity heard this step *)
  mutable recv_silence : int;
  mutable med_announced : bool;
  mutable med_echo_seen : bool;
  mutable med_silence : int;  (* announced steps that drew no echo *)
  mutable last_seen_slot : int;  (* wake-up gap detection *)
}

let run_phase4 (type a) ?trace ~faulty ~timeout ~max_retries ~patience
    ~(monoid : a Aggregate.monoid) ~(values : a array) ~(cast : Cogcast.result)
    ~(info : phase2_info array) ~(clusters : (int * int * int) list array) ~runner
    ~max_steps () =
  let n = cast.Cogcast.n in
  let source = cast.Cogcast.source in
  let emit ev = match trace with Some tr -> Trace.record tr ev | None -> () in
  let traced = trace <> None in
  let reelections = ref 0 and retries = ref 0 in
  (* delivered_to.(v) = the receiver that freshly folded v's value; the
     ground truth for coverage accounting. *)
  let delivered_to = Array.make n (-1) in
  let last_awake = Array.make n (-1) in
  let states =
    Array.init n (fun v ->
        let informed = cast.Cogcast.informed.(v) in
        let inf = info.(v) in
        let own_r = Option.value ~default:(-1) cast.Cogcast.informed_at.(v) in
        let own_label = Option.value ~default:0 cast.Cogcast.informed_label.(v) in
        let to_collect = if inf.wrote_off then [] else clusters.(v) in
        let role =
          if inf.wrote_off then Done
          else if (not informed) && v <> source then Done
          else if to_collect <> [] then Collecting
          else if v = source then Done
          else Sending
        in
        let remaining =
          match to_collect with (_, _, size) :: _ -> size | [] -> 0
        in
        {
          role;
          acc = values.(v);
          to_collect;
          remaining;
          pending_echo = None;
          seen = Hashtbl.create 8;
          own_r;
          own_label;
          announce_matches = false;
          sent_done = false;
          candidates = inf.candidates;
          my_rank = inf.my_rank;
          med_idx = 0;
          was_active_med = inf.my_rank = 0;
          med_label = own_label;
          chan_clusters = inf.clusters_all;
          attempts = 0;
          next_send_step = 0;
          sent_this_step = false;
          heard_announce_ever = false;
          announce_silence = 0;
          waiting_steps = 0;
          unmediated = false;
          recv_active = false;
          recv_silence = 0;
          med_announced = false;
          med_echo_seen = false;
          med_silence = 0;
          last_seen_slot = -1;
        })
  in
  let done_count =
    ref (Array.fold_left (fun acc s -> if s.role = Done then acc + 1 else acc) 0 states)
  in
  let retire ~slot v st =
    if st.role <> Done then begin
      st.role <- Done;
      incr done_count;
      if traced then emit (Trace.Retired { slot; node = v })
    end
  in
  (* Whether v currently believes it mediates its channel and may act on it.
     Rank 0 with idx 0 is exactly the plain protocol's elected mediator. *)
  let active_mediator st =
    st.my_rank >= 0
    && st.med_idx < Array.length st.candidates
    && st.med_idx = st.my_rank
    && st.role <> Collecting && st.role <> Done
  in
  let finish_sending ~slot v st =
    st.sent_done <- true;
    if active_mediator st && st.chan_clusters <> [] then st.role <- Mediating
    else retire ~slot v st
  in
  let advance_collecting ~slot v st =
    match st.to_collect with
    | [] -> ()
    | _ :: rest ->
        st.to_collect <- rest;
        st.recv_silence <- 0;
        st.pending_echo <- None;
        (match rest with
        | (_, _, size) :: _ -> st.remaining <- size
        | [] -> if v = source then retire ~slot v st else st.role <- Sending)
  in
  let mediator_note_echo ~slot v st =
    match st.chan_clusters with
    | [] -> ()
    | (r, count) :: rest ->
        let count = count - 1 in
        if count <= 0 then begin
          st.chan_clusters <- rest;
          if rest = [] && st.role = Mediating then retire ~slot v st
        end
        else st.chan_clusters <- (r, count) :: rest
  in
  (* Re-election: the channel went live, then the mediator fell silent for
     [timeout] consecutive steps — point at the next candidate. A dead or
     retired successor just provokes the next timeout; past the end of the
     list the drain degenerates to unmediated free-for-all (the
     [mediated:false] ablation), which retries can still drive home. *)
  let advance_mediator st =
    st.announce_silence <- 0;
    if st.med_idx < Array.length st.candidates then st.med_idx <- st.med_idx + 1;
    if st.med_idx >= Array.length st.candidates then st.unmediated <- true
  in
  (* Start-of-step bookkeeping, run at the announce-slot decide. All of it
     is gated on [faulty]: on a fault-free run none of these counters can
     change any decision. *)
  let step_begin ~slot v st =
    if faulty then begin
      (* Crash/restart: a node that detects it missed slots rejoins with its
         transient per-step state reset (durable state — accumulator, dedup
         set, cluster lists — survives; the dedup makes that safe). *)
      if st.last_seen_slot >= 0 && slot > st.last_seen_slot + 1 then begin
        st.announce_matches <- false;
        st.sent_this_step <- false;
        st.pending_echo <- None;
        st.recv_active <- false;
        st.med_announced <- false;
        st.med_echo_seen <- false;
        st.heard_announce_ever <- false;
        st.waiting_steps <- 0;
        st.announce_silence <- 0
      end;
      (match st.role with
      | Collecting ->
          (* Receiver watchdog: a head cluster whose channel shows no
             activity at all for a patience window is written off — its
             members crashed or were written off in phase 2. The window is
             a little longer than the senders' bootstrap patience, so
             stranded senders go unmediated before their receiver gives up
             on them. *)
          if st.recv_active then st.recv_silence <- 0
          else begin
            st.recv_silence <- st.recv_silence + 1;
            if st.recv_silence >= patience + 8 then advance_collecting ~slot v st
          end;
          st.recv_active <- false
      | Sending ->
          (* Bounded retry: past the retry budget the sender abandons — its
             subtree is recorded as lost instead of stalling the run. *)
          if st.attempts > max_retries then retire ~slot v st
      | Mediating ->
          (* A mediator whose last cluster was dropped by the head-skip
             below (rather than drained by an echo) has nothing left to
             announce and no echo will ever retire it. *)
          if st.chan_clusters = [] then retire ~slot v st
      | Done -> ());
      (* Mediator head-skip: an announced cluster that draws no echo for
         [timeout] consecutive steps has no live members left — drop it. *)
      if st.med_announced then begin
        if st.med_echo_seen then st.med_silence <- 0
        else begin
          st.med_silence <- st.med_silence + 1;
          if st.med_silence >= timeout then begin
            (match st.chan_clusters with
            | _ :: rest -> st.chan_clusters <- rest
            | [] -> ());
            st.med_silence <- 0
          end
        end
      end;
      st.med_announced <- false;
      st.med_echo_seen <- false;
      st.sent_this_step <- false;
      (* Accession: this node just became its channel's acting mediator. *)
      if active_mediator st && not st.was_active_med then begin
        st.was_active_med <- true;
        incr reelections;
        if traced then emit (Trace.Mediator { node = v })
      end
    end
  in
  let decide ~node:v ~slot =
    let st = states.(v) in
    last_awake.(v) <- slot;
    let pos = slot mod 3 in
    if pos = 0 then step_begin ~slot v st;
    st.last_seen_slot <- slot;
    match pos with
    | 0 -> (
        st.announce_matches <- st.unmediated && st.role = Sending;
        if active_mediator st then
          match st.chan_clusters with
          | (r, _) :: _ ->
              if st.role = Sending then st.announce_matches <- r = st.own_r;
              if faulty then st.med_announced <- true;
              Action.broadcast ~label:st.med_label (Announce r)
          | [] -> Action.listen ~label:st.med_label
        else
          match st.role with
          | Collecting -> (
              match st.to_collect with
              | (_, label, _) :: _ -> Action.listen ~label
              | [] -> Action.listen ~label:0)
          | Sending -> Action.listen ~label:st.own_label
          | Mediating | Done -> Action.listen ~label:0)
    | 1 -> (
        match st.role with
        | Sending when st.announce_matches ->
            if traced then emit (Trace.Sent_value { slot; node = v; r = st.own_r });
            if faulty then begin
              st.sent_this_step <- true;
              if st.attempts > 0 then incr retries
            end;
            Action.broadcast ~label:st.own_label
              (Values { val_r = st.own_r; val_id = v; payload = st.acc })
        | Sending -> Action.listen ~label:st.own_label
        | Collecting -> (
            match st.to_collect with
            | (_, label, _) :: _ -> Action.listen ~label
            | [] -> Action.listen ~label:0)
        | Mediating -> Action.listen ~label:st.med_label
        | Done -> Action.listen ~label:0)
    | _ -> (
        match st.pending_echo with
        | Some (id, _, label, _) -> Action.broadcast ~label (Echo id)
        | None -> (
            match st.role with
            | Sending -> Action.listen ~label:st.own_label
            | Mediating -> Action.listen ~label:st.med_label
            | Collecting -> (
                match st.to_collect with
                | (_, label, _) :: _ -> Action.listen ~label
                | [] -> Action.listen ~label:0)
            | Done -> Action.listen ~label:0))
  in
  let feedback ~node:v ~slot fb =
    let st = states.(v) in
    let pos = slot mod 3 in
    let step = slot / 3 in
    match (pos, fb) with
    | 0, Action.Heard { msg = Announce r; _ } ->
        if faulty then begin
          st.heard_announce_ever <- true;
          st.announce_silence <- 0;
          st.waiting_steps <- 0;
          if st.role = Collecting then st.recv_active <- true
        end;
        if st.role = Sending then begin
          (* Clusters drain in descending r, so an announce for a smaller r
             means this sender's turn was skipped over (its ack was lost, or
             the mediator head-skipped its cluster while it was backing
             off). Self-serve: send anyway, paced by the backoff; the
             receiver either still wants the value, re-acks a value it
             already folded, or the retry budget runs out and the sender
             retires. *)
          let passed_over = faulty && r < st.own_r in
          st.announce_matches <- r = st.own_r || passed_over;
          (* Backoff: a retrying sender sits out until its scheduled step. *)
          if faulty && st.attempts > 0 && step < st.next_send_step then
            st.announce_matches <- false
        end
    | 0, Action.Silence when faulty && st.role = Sending ->
        if st.heard_announce_ever then begin
          st.announce_silence <- st.announce_silence + 1;
          if st.announce_silence >= timeout then advance_mediator st
        end
        else begin
          st.waiting_steps <- st.waiting_steps + 1;
          if st.waiting_steps >= patience then st.unmediated <- true
        end
    | 1, Action.Heard { msg = Values { val_r; val_id; payload }; _ } ->
        if faulty && st.role = Collecting then st.recv_active <- true;
        if st.role = Collecting then begin
          match st.to_collect with
          | (r, label, _) :: _ when r = val_r ->
              if Hashtbl.mem st.seen val_id then
                (* Already folded: the sender missed our first echo and
                   retried. Re-ack without counting it again. *)
                st.pending_echo <- Some (val_id, false, label, r)
              else begin
                Hashtbl.replace st.seen val_id ();
                st.acc <- monoid.Aggregate.combine st.acc payload;
                (* The fold is the semantic delivery: record it now, so
                   coverage agrees with the accumulator even if the ack is
                   lost and the commit below never happens. *)
                if delivered_to.(val_id) < 0 then delivered_to.(val_id) <- v;
                st.pending_echo <- Some (val_id, true, label, r)
              end
          | _ -> ()
        end
    | 2, (Action.Won | Action.Lost _ | Action.Jammed) when st.pending_echo <> None
      ->
        (* The echo went out (Won is guaranteed fault-free), or was absorbed
           by a jammer — either way the fold already happened, so commit the
           delivery; a sender that missed the ack retries and gets a stale
           re-ack. *)
        (match st.pending_echo with
        | Some (id, fresh, _, r) ->
            st.pending_echo <- None;
            if faulty then st.recv_active <- true;
            if fresh then begin
              if traced then
                emit (Trace.Value_delivered { slot; sender = id; receiver = v; r });
              st.remaining <- st.remaining - 1;
              if st.remaining <= 0 then advance_collecting ~slot v st
            end
        | None -> ())
    | 2, Action.Heard { msg = Echo id; _ } -> (
        if faulty then begin
          st.med_echo_seen <- true;
          st.sent_this_step <- false;
          if st.role = Collecting then st.recv_active <- true
        end;
        match st.role with
        | Sending ->
            mediator_note_echo ~slot v st;
            if id = v then finish_sending ~slot v st
        | Mediating -> mediator_note_echo ~slot v st
        | Collecting | Done -> ())
    | 2, (Action.Silence | Action.Jammed) when faulty && st.sent_this_step ->
        (* Sent, and nobody acked anything this step: schedule the next
           attempt with exponential backoff. *)
        st.sent_this_step <- false;
        st.attempts <- st.attempts + 1;
        st.next_send_step <-
          step + 1 + Backoff.retry_delay ~attempt:st.attempts ~cap:backoff_cap
    | _ -> ()
  in
  (* Coverage: v's value reached the source iff its chain of fresh
     deliveries does. Values folded into a node that was then lost are lost
     with it. *)
  let snapshot ~slots_run =
    let covered = Array.make n false in
    covered.(source) <- true;
    for v = 0 to n - 1 do
      let rec walk u steps =
        if u = source then true
        else if steps > n || u < 0 then false
        else walk delivered_to.(u) (steps + 1)
      in
      if walk v 0 then covered.(v) <- true
    done;
    let root_acc = states.(source).acc in
    let terminated = Array.map (fun st -> st.role = Done) states in
    (root_acc, terminated, covered, slots_run, !reelections, !retries)
  in
  let finished () = !done_count = n in
  (* A node not done that has been absent for [grace_slots] straight slots
     is crashed or churned out. *)
  let rec quiet_from ~slot v =
    v = n
    || (states.(v).role = Done || slot - last_awake.(v) > grace_slots)
       && quiet_from ~slot (v + 1)
  in
  (* Stop at the end of a step when everyone is done — or, on faulty runs,
     when every node that is not done is gone quiet: nothing further can
     drain. Retirements also happen at a step's start (the watchdogs), so
     the stop reads the slot. *)
  let stop ~slot = slot mod 3 = 2 && (finished () || (faulty && quiet_from ~slot 0)) in
  let max_slots = if finished () then 0 else 3 * max_steps in
  fst
    (Runner.drive runner ~stop
       { Machine.decide; feedback; finished; snapshot }
       ~max_slots)

(* ------------------------------------------------------------------ *)
(* The full protocol.                                                  *)
(* ------------------------------------------------------------------ *)

let run ?jammer ?faults ?backend ?budget_factor ?max_phase4_steps
    ?(watchdog_retries = 2) ?(timeout = 6) ?(max_retries = 8) ?trace ~monoid
    ~values ~source ~assignment ~k ~rng () =
  let who = "Cogcomp_robust.run" in
  Cogcomp.validate ~who ?budget_factor ?max_phase4_steps ~values ~source
    ~assignment ();
  if watchdog_retries < 0 then invalid_arg (who ^ ": watchdog_retries must be >= 0");
  if timeout < 1 then invalid_arg (who ^ ": timeout must be >= 1");
  if max_retries < 0 then invalid_arg (who ^ ": max_retries must be >= 0");
  let n = Assignment.num_nodes assignment in
  let faulty = jammer <> None || faults <> None in
  let cast, next_phase, total =
    Cogcomp.phase1 ?jammer ?faults ?trace ?backend ?budget_factor ~source
      ~assignment ~k ~rng ()
  in
  let tree = Disttree.of_result cast in
  let info, phase2_slots =
    run_phase2 ~cast
      ~watchdog_retries:(if faulty then watchdog_retries else 0)
      ~runner:(next_phase "cogcomp-phase2")
  in
  let mediators = List.filter (fun v -> info.(v).my_rank = 0) (List.init n Fun.id) in
  Option.iter
    (fun tr -> List.iter (fun v -> Trace.record tr (Trace.Mediator { node = v })) mediators)
    trace;
  let clusters, phase3_slots =
    Cogcomp.run_phase3 ~cast
      ~cluster_size:(fun v -> info.(v).cluster_size)
      ~runner:(next_phase "cogcomp-phase3")
  in
  let max_steps =
    match max_phase4_steps with
    | Some s -> s
    | None -> if faulty then (48 * n) + 256 else (12 * n) + 64
  in
  let patience = n + 16 in
  let root_acc, terminated, covered, phase4_slots, reelections, retries =
    run_phase4 ?trace ~faulty ~timeout ~max_retries ~patience ~monoid ~values ~cast
      ~info ~clusters ~runner:(next_phase "cogcomp-phase4") ~max_steps ()
  in
  let coverage = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 covered in
  let lost = List.filter (fun v -> not covered.(v)) (List.init n Fun.id) in
  let complete =
    cast.Cogcast.informed_count = n
    && Array.for_all (fun b -> b) terminated
    && coverage = n
  in
  if complete then
    Option.iter (fun tr -> Trace.record tr (Trace.Phase { name = "cogcomp-done" })) trace;
  {
    complete;
    root_value = root_acc;
    coverage;
    lost;
    reelections;
    retries;
    phase1_slots = cast.Cogcast.slots_run;
    phase2_slots;
    phase3_slots;
    phase4_steps = (phase4_slots + 2) / 3;
    phase4_slots;
    total_slots = cast.Cogcast.slots_run + phase2_slots + phase3_slots + phase4_slots;
    tree;
    mediators;
    terminated;
    counters = !total.Runner.counters;
    raw_rounds = !total.Runner.raw_rounds;
    failed_sessions = !total.Runner.failed_sessions;
  }
