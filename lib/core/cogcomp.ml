module Rng = Crn_prng.Rng
module Assignment = Crn_channel.Assignment
module Dynamic = Crn_channel.Dynamic
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
  max_payload : int;
  total_payload : int;
  counters : Trace.Counters.t;
  raw_rounds : int;
  failed_sessions : int;
}

(* Recovery ([~recover] with an adversary installed) must leave the run
   bit-identical to the paper's protocol when it is not armed: same root
   value, same per-phase slot counts, same RNG stream. The design rule that
   makes this hold by construction: every deviation — watchdog write-offs,
   mediator re-election, send backoff, retry abandonment — is gated behind
   a counter that (a) only advances on observations, and (b) only moves
   when recovery is armed. Disarmed, every decision the drain makes is the
   paper's decision. *)

(* Extra phase-2 rounds of [n] slots an armed run grants a participant
   that has not yet won its roster slot. *)
let watchdog_retries = 2

(* The silent-step streak that triggers mediator re-election and
   head-cluster skipping. *)
let timeout = 6

(* Unacked phase-4 sends after which a sender abandons. *)
let max_retries = 8

(* The retry backoff cap is deliberately small: contention is resolved by
   the one-winner engine, so backoff here only spaces out retries against a
   dead receiver. It must stay below [timeout], or a backed-off but live
   sender looks dead to the mediator's head-skip watchdog. *)
let backoff_cap = 4
let grace_slots = 96

let validate ?budget_factor ?max_phase4_steps ~values ~source ~assignment () =
  let n = Assignment.num_nodes assignment in
  if Array.length values <> n then invalid_arg "Cogcomp.run: values length mismatch";
  if source < 0 || source >= n then invalid_arg "Cogcomp.run: source out of range";
  Option.iter (Complexity.check_factor ~who:"Cogcomp.run") budget_factor;
  match max_phase4_steps with
  | Some s when s < 0 -> invalid_arg "Cogcomp.run: max_phase4_steps must be >= 0"
  | _ -> ()

(* Phase 1 is COGCAST with recording, of fixed length so that all nodes
   agree on phase boundaries. Phases 2-4 are machines driven on
   [next_phase name], which marks the phase in the trace and makes its
   runner: one per phase on the same backend (each on its own stream
   split from [rng]), each {!Runner.accumulating} into
   [total] — seeded with phase 1's cost — so the counters, raw rounds and
   failed sessions of all four phases add up in one outcome. The phase
   runners keep {!Runner.make}'s [machine_parallel:false]: phase 4's nodes
   share [done_count] and the payload accounting, so on a sharded backend
   only the channel phases split. *)
let phase1 ?jammer ?faults ?trace ?backend ?budget_factor ~source ~assignment ~k
    ~rng () =
  let cast =
    Cogcast.run_static ?jammer ?faults ?trace ?backend ?budget_factor ~record:true
      ~stop_when_complete:false ~source ~assignment ~k ~rng:(Rng.split rng) ()
  in
  let total =
    ref
      {
        Runner.slots_run = cast.Cogcast.slots_run;
        stopped_early = false;
        counters = cast.Cogcast.counters;
        raw_rounds = cast.Cogcast.raw_rounds;
        failed_sessions = cast.Cogcast.failed_sessions;
      }
  in
  let availability = Dynamic.static assignment in
  let next_phase name =
    Option.iter (fun tr -> Trace.record tr (Trace.Phase { name })) trace;
    Runner.accumulating total
      (Runner.make ?jammer ?faults ?trace ?backend ~availability
         ~rng:(Rng.split rng) ())
  in
  (cast, next_phase, total)

(* ------------------------------------------------------------------ *)
(* Phase 2: cluster sizes and mediator election, with a watchdog: an
   armed run keeps the phase running past the paper's n slots (up to
   [watchdog_retries] more rounds) while some participant has not yet
   won its roster slot; a participant that never wins is written off —
   absent from every roster, it is excluded from phase 4.              *)
(* ------------------------------------------------------------------ *)

type phase2_msg = { p2_id : int; p2_r : int }

type roster = {
  participant : (int * int) option array;
      (* [Some (r, label)]: the slot and channel label phase 1 informed the
         node on; [None] for the source and uninformed nodes. *)
  rosters : (int * int) list array;  (* (id, r) heard, own included *)
  sent_ok : bool array;  (* the participant won its roster slot *)
  slots_run : int;
}

(* Fault-free every participant wins within the first n slots (one winner
   per channel per slot), so the stop fires at the end of slot n-1 and the
   phase is the paper's fixed n slots at any [rounds]. The machine is
   finished once every participant has won; the phase's stop also waits
   out those n slots, so it is given by slot. *)
let collect_rosters ~(cast : Cogcast.result) ~rounds ~runner =
  let n = cast.Cogcast.n in
  let participant =
    Array.init n (fun v ->
        if v = cast.Cogcast.source then None
        else
          match (cast.Cogcast.informed_at.(v), cast.Cogcast.informed_label.(v)) with
          | Some r, Some label -> Some (r, label)
          | _ -> None)
  in
  let sent_ok = Array.make n false in
  let rosters = Array.make n [] in
  let pending = ref 0 in
  Array.iteri
    (fun v p ->
      match p with
      | Some (r, _) ->
          rosters.(v) <- [ (v, r) ];
          incr pending
      | None -> ())
    participant;
  let decide ~node:v ~slot:_ =
    match participant.(v) with
    | None -> Action.listen ~label:0
    | Some (r, label) ->
        if sent_ok.(v) then Action.listen ~label
        else Action.broadcast ~label { p2_id = v; p2_r = r }
  in
  let note v msg = rosters.(v) <- (msg.p2_id, msg.p2_r) :: rosters.(v) in
  let feedback ~node:v ~slot:_ = function
    | Action.Won ->
        sent_ok.(v) <- true;
        decr pending
    | Action.Lost { msg; _ } -> note v msg
    | Action.Heard { msg; _ } -> if participant.(v) <> None then note v msg
    | Action.Silence | Action.Jammed | Action.No_winner -> ()
  in
  let finished () = !pending = 0 in
  let snapshot ~slots_run = { participant; rosters; sent_ok; slots_run } in
  let m = { Machine.decide; feedback; finished; snapshot } in
  fst
    (Runner.drive runner m
       ~stop:(fun ~slot -> slot >= n - 1 && finished ())
       ~max_slots:(n * rounds))

type phase2_info = {
  cluster_size : int;  (* size of the node's own (r,c)-cluster *)
  wrote_off : bool;
  (* Succession order for the channel's mediatorship: the elected mediator
     (Lemma 7b: the smallest id in the channel's latest cluster) first,
     then the remaining roster ids ascending — "the next-smallest live
     id". *)
  candidates : int array;
  my_rank : int;  (* index of this node in its own [candidates]; -1 if none *)
  (* Every participant's copy of the channel's clusters as
     (r, undelivered count), descending r — any candidate may have to
     mediate, so everyone tracks what the paper computes only for the
     mediator. *)
  clusters_all : (int * int) list;
}

let no_info =
  { cluster_size = 0; wrote_off = false; candidates = [||]; my_rank = -1; clusters_all = [] }

let run_phase2 ~(cast : Cogcast.result) ~rounds ~runner =
  let c = collect_rosters ~cast ~rounds ~runner in
  let info =
    Array.init cast.Cogcast.n (fun v ->
        match c.participant.(v) with
        | None -> no_info
        | Some (r, _) ->
            (* By descending r, then ascending id: the head is the mediator,
               and each cluster's entries are adjacent. *)
            let roster =
              List.sort
                (fun (a, ra) (b, rb) -> if ra <> rb then compare rb ra else compare a b)
                c.rosters.(v)
            in
            let mediator = fst (List.hd roster) in
            let candidates =
              Array.of_list
                (mediator
                :: List.sort compare
                     (List.filter_map
                        (fun (id, _) -> if id <> mediator then Some id else None)
                        roster))
            in
            let my_rank =
              let rank = ref (-1) in
              Array.iteri (fun i id -> if id = v then rank := i) candidates;
              !rank
            in
            let clusters_all =
              List.fold_right
                (fun (_, r') acc ->
                  match acc with
                  | (r0, count) :: rest when r0 = r' -> (r0, count + 1) :: rest
                  | _ -> (r', 1) :: acc)
                roster []
            in
            {
              cluster_size = List.assoc r clusters_all;
              wrote_off = not c.sent_ok.(v);
              candidates;
              my_rank;
              clusters_all;
            })
  in
  (info, c.slots_run)

(* ------------------------------------------------------------------ *)
(* Phase 3: the rewind — informers learn their clusters' sizes. It runs
   unchanged under recovery: a node that was down in a mirrored slot
   simply misses a cluster size, and the phase-4 watchdogs absorb the
   resulting disagreement.                                              *)
(* ------------------------------------------------------------------ *)

let run_phase3 ~(cast : Cogcast.result) ~cluster_size ~runner =
  let n = cast.Cogcast.n in
  let logs =
    match cast.Cogcast.logs with
    | Some logs -> logs
    | None -> invalid_arg "Cogcomp.run_phase3: phase 1 must be run with recording on"
  in
  let l = cast.Cogcast.slots_run in
  (* clusters_collected.(v) = (r, label, size) list for clusters v informed. *)
  let clusters_collected = Array.make n [] in
  (* The phase-1 slot mirrored by the current phase-3 slot, per node, so the
     feedback handler knows which cluster a heard size belongs to. *)
  let decide ~node:v ~slot =
    let mirrored = l - 1 - slot in
    let entry = logs.(v).(mirrored) in
    match entry.Cogcast.event with
    | Cogcast.Got_informed _ ->
        Action.broadcast ~label:entry.Cogcast.label (cluster_size v)
    | Cogcast.Sent_won | Cogcast.Sent_lost | Cogcast.Heard_silence | Cogcast.Was_jammed
    | Cogcast.Session_failed ->
        Action.listen ~label:entry.Cogcast.label
  in
  let feedback ~node:v ~slot = function
    | Action.Heard { msg = size; _ } ->
        let mirrored = l - 1 - slot in
        let entry = logs.(v).(mirrored) in
        (* Only the slot's winner interprets the size broadcast: it created
           the cluster being reported. *)
        (match entry.Cogcast.event with
        | Cogcast.Sent_won ->
            clusters_collected.(v) <-
              (mirrored, entry.Cogcast.label, size) :: clusters_collected.(v)
        | Cogcast.Sent_lost | Cogcast.Got_informed _ | Cogcast.Heard_silence
        | Cogcast.Was_jammed | Cogcast.Session_failed ->
            ())
    | Action.Won | Action.Lost _ | Action.Silence | Action.Jammed
    | Action.No_winner ->
        ()
  in
  (* Descending r, as phase 4 consumes them. *)
  let snapshot ~slots_run =
    ( Array.map
        (fun cs -> List.sort (fun (a, _, _) (b, _, _) -> compare b a) cs)
        clusters_collected,
      slots_run )
  in
  (* A fixed-length phase: the slot budget ends it. *)
  let finished () = false in
  fst (Runner.drive runner { Machine.decide; feedback; finished; snapshot } ~max_slots:l)

(* ------------------------------------------------------------------ *)
(* Phase 4: mediated drain with acks; armed, also bounded retries and
   re-election.                                                         *)
(* ------------------------------------------------------------------ *)

type 'a phase4_msg =
  | Announce of int  (* cluster slot r' whose members may send now *)
  | Values of { val_r : int; val_id : int; payload : 'a }
  | Echo of int  (* identity of the sender whose values were received *)

type role = Collecting | Sending | Mediating | Done

type 'a node_state = {
  mutable role : role;
  mutable acc : 'a;
  mutable to_collect : (int * int * int) list;  (* (r, label, size) desc r *)
  mutable remaining : int;  (* members of the current cluster still unheard *)
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
  (* Mediation: [candidates.(med_idx)] is whom this node currently believes
     mediates its channel; the node itself mediates when that is its own
     rank. *)
  candidates : int array;
  my_rank : int;
  mutable med_idx : int;
  mutable was_active_med : bool;
  med_label : int;
  mutable chan_clusters : (int * int) list;  (* (r, undelivered), desc r *)
  (* Watchdog counters — they move only on armed runs. *)
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

let run_phase4 (type a) ?measure ?trace ~armed ~mediated ~patience
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
        (* The [mediated:false] ablation is the succession list exhausted
           from the start: no node ever mediates, every sender sends. *)
        let exhausted = Array.length inf.candidates in
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
          candidates = inf.candidates;
          my_rank = inf.my_rank;
          med_idx = (if mediated then 0 else exhausted);
          was_active_med = inf.my_rank = 0;
          med_label = own_label;
          chan_clusters = inf.clusters_all;
          attempts = 0;
          next_send_step = 0;
          sent_this_step = false;
          heard_announce_ever = false;
          announce_silence = 0;
          waiting_steps = 0;
          unmediated = not mediated;
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
  (* Payload accounting for the §5 message-size discussion. *)
  let max_payload = ref 0 and total_payload = ref 0 in
  let account payload =
    match measure with
    | None -> ()
    | Some f ->
        let size = f payload in
        max_payload := max !max_payload size;
        total_payload := !total_payload + size
  in
  (* Whether v currently believes it mediates its channel and may act on it.
     Rank 0 with idx 0 is exactly the paper's elected mediator. *)
  let active_mediator st =
    st.my_rank >= 0
    && st.med_idx < Array.length st.candidates
    && st.med_idx = st.my_rank
    && st.role <> Collecting && st.role <> Done
  in
  let finish_sending ~slot v st =
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
     list the drain degenerates to the unmediated free-for-all (the
     [mediated:false] ablation), which retries can still drive home. *)
  let advance_mediator st =
    st.announce_silence <- 0;
    if st.med_idx < Array.length st.candidates then st.med_idx <- st.med_idx + 1;
    if st.med_idx >= Array.length st.candidates then st.unmediated <- true
  in
  (* Start-of-step bookkeeping, run at the announce-slot decide of an
     armed run only: disarmed, none of these counters can change any
     decision. The slot stamps it and the quiet stop read are kept only
     when armed too. *)
  let step_begin ~slot v st =
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
  in
  let decide ~node:v ~slot =
    let st = states.(v) in
    let pos = slot mod 3 in
    if armed then begin
      last_awake.(v) <- slot;
      if pos = 0 then step_begin ~slot v st;
      st.last_seen_slot <- slot
    end;
    match pos with
    | 0 -> (
        st.announce_matches <- st.unmediated && st.role = Sending;
        if active_mediator st then
          match st.chan_clusters with
          | (r, _) :: _ ->
              if st.role = Sending then st.announce_matches <- r = st.own_r;
              if armed then st.med_announced <- true;
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
            account st.acc;
            if traced then emit (Trace.Sent_value { slot; node = v; r = st.own_r });
            if armed then begin
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
    match (pos, fb) with
    | 0, Action.Heard { msg = Announce r; _ } ->
        if armed then begin
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
          let passed_over = armed && r < st.own_r in
          st.announce_matches <- r = st.own_r || passed_over;
          (* Backoff: a retrying sender sits out until its scheduled step. *)
          if armed && st.attempts > 0 && slot / 3 < st.next_send_step then
            st.announce_matches <- false
        end
    | 0, Action.Silence when armed && st.role = Sending ->
        if st.heard_announce_ever then begin
          st.announce_silence <- st.announce_silence + 1;
          if st.announce_silence >= timeout then advance_mediator st
        end
        else begin
          st.waiting_steps <- st.waiting_steps + 1;
          if st.waiting_steps >= patience then st.unmediated <- true
        end
    | 1, Action.Heard { msg = Values { val_r; val_id; payload }; _ } ->
        if armed && st.role = Collecting then st.recv_active <- true;
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
        (* The echo went out (Won is guaranteed fault-free: the receiver is
           the only broadcaster on its channel in slot 3), or was absorbed
           by a jammer — either way the fold already happened, so commit the
           delivery; a sender that missed the ack retries and gets a stale
           re-ack. *)
        (match st.pending_echo with
        | Some (id, fresh, _, r) ->
            st.pending_echo <- None;
            if armed then st.recv_active <- true;
            if fresh then begin
              if traced then
                emit (Trace.Value_delivered { slot; sender = id; receiver = v; r });
              st.remaining <- st.remaining - 1;
              if st.remaining <= 0 then advance_collecting ~slot v st
            end
        | None -> ())
    | 2, Action.Heard { msg = Echo id; _ } -> (
        if armed then begin
          st.med_echo_seen <- true;
          st.sent_this_step <- false;
          if st.role = Collecting then st.recv_active <- true
        end;
        (* Senders learn their delivery; every roster member tracks the
           channel's drain, since any of them may have to mediate. A
           mediator that is still sending must do both: its own delivery
           also drains one member of the current cluster. *)
        match st.role with
        | Sending ->
            mediator_note_echo ~slot v st;
            if id = v then finish_sending ~slot v st
        | Mediating -> mediator_note_echo ~slot v st
        | Collecting | Done -> ())
    | 2, (Action.Silence | Action.Jammed) when armed && st.sent_this_step ->
        (* Sent, and nobody acked anything this step: schedule the next
           attempt with exponential backoff. *)
        st.sent_this_step <- false;
        st.attempts <- st.attempts + 1;
        st.next_send_step <-
          (slot / 3) + 1 + Backoff.retry_delay ~attempt:st.attempts ~cap:backoff_cap
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
    ( states.(source).acc,
      Array.map (fun st -> st.role = Done) states,
      covered,
      slots_run,
      !reelections,
      !retries,
      !max_payload,
      !total_payload )
  in
  let finished () = !done_count = n in
  (* A node not done that has been absent for [grace_slots] straight slots
     is crashed or churned out. *)
  let rec quiet_from ~slot v =
    v = n
    || (states.(v).role = Done || slot - last_awake.(v) > grace_slots)
       && quiet_from ~slot (v + 1)
  in
  (* Stop at the end of a step when everyone is done — or, armed, when
     every node that is not done has gone quiet: nothing further can
     drain. Armed retirements also happen at a step's start (the
     watchdogs), so the stop reads the slot. Nothing to drain (e.g. a
     one-node network) makes phase 4 empty. *)
  let stop ~slot = slot mod 3 = 2 && (finished () || (armed && quiet_from ~slot 0)) in
  let max_slots = if finished () then 0 else 3 * max_steps in
  fst
    (Runner.drive runner ~stop
       { Machine.decide; feedback; finished; snapshot }
       ~max_slots)

(* ------------------------------------------------------------------ *)
(* The full protocol.                                                  *)
(* ------------------------------------------------------------------ *)

let run ?jammer ?faults ?backend ?budget_factor ?max_phase4_steps
    ?(mediated = true) ?(recover = false) ?measure ?trace ~monoid ~values ~source
    ~assignment ~k ~rng () =
  validate ?budget_factor ?max_phase4_steps ~values ~source ~assignment ();
  let n = Assignment.num_nodes assignment in
  let armed = recover && (jammer <> None || faults <> None) in
  let cast, next_phase, total =
    phase1 ?jammer ?faults ?trace ?backend ?budget_factor ~source ~assignment ~k
      ~rng ()
  in
  let tree = Disttree.of_result cast in
  let info, phase2_slots =
    run_phase2 ~cast
      ~rounds:(if armed then 1 + watchdog_retries else 1)
      ~runner:(next_phase "cogcomp-phase2")
  in
  let mediators = List.filter (fun v -> info.(v).my_rank = 0) (List.init n Fun.id) in
  Option.iter
    (fun tr -> List.iter (fun v -> Trace.record tr (Trace.Mediator { node = v })) mediators)
    trace;
  let clusters, phase3_slots =
    run_phase3 ~cast
      ~cluster_size:(fun v -> info.(v).cluster_size)
      ~runner:(next_phase "cogcomp-phase3")
  in
  let max_steps =
    match max_phase4_steps with
    | Some s -> s
    | None -> if armed then (48 * n) + 256 else (12 * n) + 64
  in
  let ( root_value,
        terminated,
        covered,
        phase4_slots,
        reelections,
        retries,
        max_payload,
        total_payload ) =
    run_phase4 ?measure ?trace ~armed ~mediated ~patience:(n + 16) ~monoid ~values
      ~cast ~info ~clusters ~runner:(next_phase "cogcomp-phase4") ~max_steps ()
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
    root_value;
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
    max_payload;
    total_payload;
    counters = !total.Runner.counters;
    raw_rounds = !total.Runner.raw_rounds;
    failed_sessions = !total.Runner.failed_sessions;
  }
