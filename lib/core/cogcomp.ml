module Rng = Crn_prng.Rng
module Assignment = Crn_channel.Assignment
module Dynamic = Crn_channel.Dynamic
module Action = Crn_radio.Action
module Machine = Crn_radio.Machine
module Trace = Crn_radio.Trace

type 'a result = {
  complete : bool;
  root_value : 'a option;
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

module Runner = Crn_radio.Runner

(* ------------------------------------------------------------------ *)
(* Building blocks shared with {!Cogcomp_robust}.                      *)
(* ------------------------------------------------------------------ *)

let validate ~who ?budget_factor ?max_phase4_steps ~values ~source ~assignment () =
  let n = Assignment.num_nodes assignment in
  if Array.length values <> n then invalid_arg (who ^ ": values length mismatch");
  if source < 0 || source >= n then invalid_arg (who ^ ": source out of range");
  Option.iter (Complexity.check_factor ~who) budget_factor;
  match max_phase4_steps with
  | Some s when s < 0 -> invalid_arg (who ^ ": max_phase4_steps must be >= 0")
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
(* Phase 2: cluster sizes and mediator election.                       *)
(* ------------------------------------------------------------------ *)

type phase2_msg = { p2_id : int; p2_r : int }

type roster = {
  participant : (int * int) option array;
  rosters : (int * int) list array;
  sent_ok : bool array;
  slots_run : int;
}

(* Fault-free every participant wins within the first n slots (one winner
   per channel per slot), so the stop fires at the end of slot n-1 and the
   phase is plain COGCOMP's fixed n slots at any [rounds]. The machine is
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

let elect ~r roster =
  let cluster_size = List.length (List.filter (fun (_, r') -> r' = r) roster) in
  let r_max = List.fold_left (fun acc (_, r') -> max acc r') (-1) roster in
  let mediator =
    List.fold_left
      (fun acc (id, r') -> if r' = r_max then min acc id else acc)
      max_int roster
  in
  (cluster_size, mediator)

type phase2_info = {
  cluster_size : int;  (* size of the node's own (r,c)-cluster *)
  roster : (int * int) list;  (* (id, r) of every node on this channel *)
  is_mediator : bool;
  (* For the mediator: every cluster on its channel as (r, member ids),
     sorted by descending r. Empty for non-mediators. *)
  med_clusters : (int * int list) list;
}

let run_phase2 ~(cast : Cogcast.result) ~runner =
  let c = collect_rosters ~cast ~rounds:1 ~runner in
  let info =
    Array.init cast.Cogcast.n (fun v ->
        match c.participant.(v) with
        | None ->
            { cluster_size = 0; roster = []; is_mediator = false; med_clusters = [] }
        | Some (r, _) ->
            let roster = c.rosters.(v) in
            let cluster_size, mediator = elect ~r roster in
            let is_mediator = mediator = v in
            let med_clusters =
              if not is_mediator then []
              else begin
                let by_r : (int, int list) Hashtbl.t = Hashtbl.create 8 in
                List.iter
                  (fun (id, r') ->
                    let cur = Option.value ~default:[] (Hashtbl.find_opt by_r r') in
                    Hashtbl.replace by_r r' (id :: cur))
                  roster;
                Hashtbl.fold (fun r' ids acc -> (r', List.sort compare ids) :: acc) by_r []
                |> List.sort (fun (a, _) (b, _) -> compare b a)
              end
            in
            { cluster_size; roster; is_mediator; med_clusters })
  in
  (info, c.slots_run)

(* ------------------------------------------------------------------ *)
(* Phase 3: the rewind — informers learn their clusters' sizes. Robust
   COGCOMP runs it unchanged: a node that was down in a mirrored slot
   simply misses a cluster size, and its phase-4 watchdogs absorb the
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
(* Phase 4: mediated leaf-to-root drain.                               *)
(* ------------------------------------------------------------------ *)

type 'a phase4_msg =
  | Announce of int  (* cluster slot r' whose members may send now *)
  | Values of { val_r : int; val_id : int; payload : 'a }
  | Echo of int  (* identity of the sender whose values were received *)

type role = Collecting | Sending | Mediating | Done

type 'a node_state = {
  mutable role : role;
  mutable acc : 'a;
  (* Receiver side: clusters still to collect, descending r. *)
  mutable to_collect : (int * int * int) list;  (* (r, label, size) *)
  mutable remaining : int;  (* members of the current cluster still unheard *)
  mutable pending_echo : int option;
  (* Sender side. *)
  own_r : int;
  own_label : int;
  mutable announce_matches : bool;
  mutable sent_done : bool;
  (* Mediator side. *)
  is_mediator : bool;
  med_label : int;
  mutable med_clusters : (int * int) list;  (* (r, undelivered count), desc r *)
}

let run_phase4 (type a) ?measure ?trace ~mediated ~(monoid : a Aggregate.monoid)
    ~(values : a array) ~(cast : Cogcast.result) ~(info : phase2_info array)
    ~(clusters : (int * int * int) list array) ~runner ~max_steps () =
  let n = cast.Cogcast.n in
  let source = cast.Cogcast.source in
  let emit ev = match trace with Some tr -> Trace.record tr ev | None -> () in
  let traced = trace <> None in
  let states =
    Array.init n (fun v ->
        let informed = cast.Cogcast.informed.(v) in
        let own_r = Option.value ~default:(-1) cast.Cogcast.informed_at.(v) in
        let own_label = Option.value ~default:0 cast.Cogcast.informed_label.(v) in
        let to_collect = clusters.(v) in
        let is_mediator = info.(v).is_mediator in
        let med_clusters =
          List.map (fun (r, ids) -> (r, List.length ids)) info.(v).med_clusters
        in
        let role =
          if not informed && v <> source then Done
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
          own_r;
          own_label;
          announce_matches = false;
          sent_done = false;
          is_mediator;
          med_label = own_label;
          med_clusters;
        })
  in
  let done_count = ref (Array.fold_left (fun acc s -> if s.role = Done then acc + 1 else acc) 0 states) in
  let retire ~slot v st =
    st.role <- Done;
    incr done_count;
    if traced then emit (Trace.Retired { slot; node = v })
  in
  (* Mediator duties are live once the node has left the Collecting role;
     with mediation ablated there are no mediator duties at all. *)
  let mediator_live st =
    mediated && st.is_mediator && st.role <> Collecting && st.role <> Done
  in
  let finish_sending ~slot v st =
    st.sent_done <- true;
    if mediated && st.is_mediator && st.med_clusters <> [] then st.role <- Mediating
    else retire ~slot v st
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
  let advance_collecting ~slot v st =
    match st.to_collect with
    | [] -> assert false
    | _ :: rest ->
        st.to_collect <- rest;
        (match rest with
        | (_, _, size) :: _ -> st.remaining <- size
        | [] -> if v = source then retire ~slot v st else st.role <- Sending)
  in
  let mediator_note_echo ~slot v st =
    match st.med_clusters with
    | [] -> ()
    | (r, count) :: rest ->
        let count = count - 1 in
        if count <= 0 then begin
          st.med_clusters <- rest;
          if rest = [] && st.role = Mediating then retire ~slot v st
        end
        else st.med_clusters <- (r, count) :: rest
  in
  let decide ~node:v ~slot =
    let st = states.(v) in
    let pos = slot mod 3 in
    match pos with
    | 0 -> (
        st.announce_matches <- (not mediated) && st.role = Sending;
        if mediator_live st then
          match st.med_clusters with
          | (r, _) :: _ ->
              if st.role = Sending then st.announce_matches <- r = st.own_r;
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
        | Some id ->
            (* Receiver: acknowledge the delivered sender. *)
            (match st.to_collect with
            | (_, label, _) :: _ -> Action.broadcast ~label (Echo id)
            | [] -> assert false)
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
        if st.role = Sending then st.announce_matches <- r = st.own_r
    | 1, Action.Heard { msg = Values { val_r; val_id; payload }; _ } ->
        if st.role = Collecting then begin
          match st.to_collect with
          | (r, _, _) :: _ when r = val_r ->
              st.acc <- monoid.Aggregate.combine st.acc payload;
              st.pending_echo <- Some val_id
          | _ -> ()
        end
    | 2, (Action.Won | Action.Lost _) when st.pending_echo <> None ->
        (* Our echo went out (Won is guaranteed: the receiver is the only
           broadcaster on its channel in slot 3). *)
        (if traced then
           match (st.pending_echo, st.to_collect) with
           | Some id, (r, _, _) :: _ ->
               emit (Trace.Value_delivered { slot; sender = id; receiver = v; r })
           | _ -> ());
        st.pending_echo <- None;
        st.remaining <- st.remaining - 1;
        if st.remaining <= 0 then advance_collecting ~slot v st
    | 2, Action.Heard { msg = Echo id; _ } -> (
        (* Senders learn their delivery; mediators account for the drain.
           A mediator that is still sending must do both: its own delivery
           also drains one member of the current cluster. *)
        match st.role with
        | Sending ->
            if mediated && st.is_mediator then mediator_note_echo ~slot v st;
            if id = v then finish_sending ~slot v st
        | Mediating -> mediator_note_echo ~slot v st
        | Collecting | Done -> ())
    | _ -> ()
  in
  (* Nodes retire only in a step's echo slot (every [retire] is reached
     from slot-3 feedback), so [finished] can only turn true at the end of
     a step: the drain stops on whole steps. Nothing to drain (e.g. a
     one-node network) makes phase 4 empty. *)
  let finished () = !done_count = n in
  let snapshot ~slots_run =
    ( states.(source).acc,
      Array.map (fun st -> st.role = Done) states,
      slots_run,
      !max_payload,
      !total_payload )
  in
  fst
    (Runner.drive runner
       { Machine.decide; feedback; finished; snapshot }
       ~max_slots:(3 * max_steps))

(* ------------------------------------------------------------------ *)
(* The full protocol.                                                  *)
(* ------------------------------------------------------------------ *)

let run ?jammer ?faults ?backend ?budget_factor ?max_phase4_steps
    ?(mediated = true) ?measure ?trace ~monoid ~values ~source ~assignment ~k
    ~rng () =
  validate ~who:"Cogcomp.run" ?budget_factor ?max_phase4_steps ~values ~source
    ~assignment ();
  let n = Assignment.num_nodes assignment in
  let cast, next_phase, total =
    phase1 ?jammer ?faults ?trace ?backend ?budget_factor ~source ~assignment ~k
      ~rng ()
  in
  let tree = Disttree.of_result cast in
  let info, phase2_slots = run_phase2 ~cast ~runner:(next_phase "cogcomp-phase2") in
  let mediators = List.filter (fun v -> info.(v).is_mediator) (List.init n Fun.id) in
  Option.iter
    (fun tr -> List.iter (fun v -> Trace.record tr (Trace.Mediator { node = v })) mediators)
    trace;
  let clusters, phase3_slots =
    run_phase3 ~cast
      ~cluster_size:(fun v -> info.(v).cluster_size)
      ~runner:(next_phase "cogcomp-phase3")
  in
  let max_steps =
    match max_phase4_steps with Some s -> s | None -> (12 * n) + 64
  in
  let root_acc, terminated, phase4_slots, max_payload, total_payload =
    run_phase4 ?measure ?trace ~mediated ~monoid ~values ~cast ~info ~clusters
      ~runner:(next_phase "cogcomp-phase4") ~max_steps ()
  in
  let complete =
    cast.Cogcast.informed_count = n && Array.for_all (fun b -> b) terminated
  in
  if complete then
    Option.iter (fun tr -> Trace.record tr (Trace.Phase { name = "cogcomp-done" })) trace;
  {
    complete;
    root_value = (if complete then Some root_acc else None);
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
