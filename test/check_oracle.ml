(* The list-based Trace.Check checkers as they stood before the
   single-pass rewrite, kept unchanged as a differential oracle: the
   property in test_trace.ml requires the library's checkers to report
   exactly these violations on mutated traces. Test-only; nothing in the
   library calls it. *)

open Crn_radio.Trace

type violation = Check.violation = { invariant : string; detail : string }

let v invariant fmt = Printf.ksprintf (fun detail -> { invariant; detail }) fmt

(* Split the event stream into phase segments: slot numbering restarts at
   each [Phase] marker, so per-(slot, channel) grouping is only meaningful
   within a segment. Returns segments in stream order. *)
let segments t =
  let segs = ref [] and cur = ref [] in
  iter
    (fun ev ->
      match ev with
      | Phase _ ->
          if !cur <> [] then segs := List.rev !cur :: !segs;
          cur := []
      | ev -> cur := ev :: !cur)
    t;
  if !cur <> [] then segs := List.rev !cur :: !segs;
  List.rev !segs

let one_winner t =
  let violations = ref [] in
  let report vl = violations := vl :: !violations in
  List.iter
    (fun seg ->
      let bcasters : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
      let listeners : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
      let wins : (int * int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
      let failed : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
      let delivers = ref [] in
      let push tbl key x =
        Hashtbl.replace tbl key (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
      in
      List.iter
        (fun ev ->
          match ev with
          | Decide { slot; node; channel; tx; _ } ->
              if tx then push bcasters (slot, channel) node
              else push listeners (slot, channel) node
          | Win { slot; channel; winner; contenders } ->
              push wins (slot, channel) (winner, contenders)
          | Session { slot; channel; ok = false; _ } ->
              Hashtbl.replace failed (slot, channel) ()
          | Deliver { slot; channel; sender; receiver } ->
              delivers := (slot, channel, sender, receiver) :: !delivers
          | _ -> ())
        seg;
      Hashtbl.iter
        (fun (slot, channel) ws ->
          let bs = Option.value ~default:[] (Hashtbl.find_opt bcasters (slot, channel)) in
          (if List.length ws > 1 then
             report
               (v "one-winner" "slot %d channel %d has %d winners" slot channel
                  (List.length ws)));
          List.iter
            (fun (winner, contenders) ->
              if not (List.mem winner bs) then
                report
                  (v "one-winner"
                     "slot %d channel %d: winner %d was not an audible broadcaster"
                     slot channel winner);
              if contenders <> List.length bs then
                report
                  (v "one-winner"
                     "slot %d channel %d: win records %d contenders, trace shows %d"
                     slot channel contenders (List.length bs)))
            ws)
        wins;
      Hashtbl.iter
        (fun (slot, channel) _bs ->
          if
            (not (Hashtbl.mem wins (slot, channel)))
            && not (Hashtbl.mem failed (slot, channel))
          then
            report
              (v "one-winner"
                 "slot %d channel %d has broadcasters but no winner and no failed \
                  session"
                 slot channel))
        bcasters;
      List.iter
        (fun (slot, channel, sender, receiver) ->
          (match Hashtbl.find_opt wins (slot, channel) with
          | Some [ (winner, _) ] when winner = sender -> ()
          | Some _ ->
              report
                (v "one-winner"
                   "slot %d channel %d: delivery from %d does not match the winner"
                   slot channel sender)
          | None ->
              report
                (v "one-winner" "slot %d channel %d: delivery from %d without a win"
                   slot channel sender));
          let ls =
            Option.value ~default:[] (Hashtbl.find_opt listeners (slot, channel))
          in
          if not (List.mem receiver ls) then
            report
              (v "one-winner"
                 "slot %d channel %d: receiver %d was not listening there" slot
                 channel receiver))
        !delivers)
    (segments t);
  List.rev !violations

let informed_tree t =
  let violations = ref [] in
  let report vl = violations := vl :: !violations in
  let meta =
    fold
      (fun acc ev ->
        match ev with Meta { n; source; _ } -> Some (n, source) | _ -> acc)
      None t
  in
  let informs =
    List.filter_map
      (function Informed { slot; node; parent; label = _ } -> Some (slot, node, parent) | _ -> None)
      (to_list t)
  in
  (match (informs, meta) with
  | [], _ -> ()
  | _ :: _, None ->
      report (v "informed-tree" "trace has Informed events but no Meta header")
  | _ :: _, Some (n, source) ->
      let informed_at = Array.make (max n 1) (-1) in
      List.iter
        (fun (slot, node, parent) ->
          if node < 0 || node >= n then
            report (v "informed-tree" "informed node %d out of range [0,%d)" node n)
          else if parent < 0 || parent >= n then
            report (v "informed-tree" "parent %d of node %d out of range" parent node)
          else begin
            if node = source then
              report (v "informed-tree" "source %d was informed at slot %d" node slot);
            if parent = node then
              report (v "informed-tree" "node %d is its own parent" node);
            if informed_at.(node) >= 0 then
              report
                (v "informed-tree" "node %d informed twice (slots %d and %d)" node
                   informed_at.(node) slot)
            else begin
              (* Informer precedes informee: the parent must already have
                 the message, i.e. be the source or have been informed in
                 a strictly earlier slot (an informed node only starts
                 broadcasting in the slot after it was informed). *)
              (if parent <> source then
                 match informed_at.(parent) with
                 | -1 ->
                     report
                       (v "informed-tree"
                          "node %d informed at slot %d by %d, which was never \
                           informed before it"
                          node slot parent)
                 | ps when ps >= slot ->
                     report
                       (v "informed-tree"
                          "node %d informed at slot %d by %d, informed only at slot \
                           %d"
                          node slot parent ps)
                 | _ -> ());
              informed_at.(node) <- slot
            end
          end)
        informs;
      (* Acyclicity and parent-edge validity by walking every chain to the
         root. Redundant when the slot checks above pass, but catches
         consistently corrupted traces. *)
      let parent_of = Array.make (max n 1) (-1) in
      List.iter
        (fun (_, node, parent) ->
          if node >= 0 && node < n && parent_of.(node) = -1 then
            parent_of.(node) <- parent)
        informs;
      Array.iteri
        (fun node p ->
          if p >= 0 then begin
            let steps = ref 0 and cur = ref node and broken = ref false in
            while (not !broken) && !cur <> source && !steps <= n do
              incr steps;
              let p = if !cur >= 0 && !cur < n then parent_of.(!cur) else -1 in
              if p < 0 then begin
                report
                  (v "informed-tree" "node %d: chain breaks at %d before the source"
                     node !cur);
                broken := true
              end
              else cur := p
            done;
            if (not !broken) && !steps > n then
              report (v "informed-tree" "node %d: parent chain has a cycle" node)
          end)
        parent_of);
  List.rev !violations

let phase4_drain t =
  let violations = ref [] in
  let report vl = violations := vl :: !violations in
  (* Isolate the events between Phase "cogcomp-phase4" and the next phase
     marker; note whether the run declared completion. *)
  let in_p4 = ref false in
  let complete = ref false in
  let has_down = ref false in
  let sent : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let sent_hist : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let delivered = ref [] in
  let retired : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let informed = ref [] in
  iter
    (fun ev ->
      match ev with
      | Phase { name } ->
          in_p4 := name = "cogcomp-phase4";
          if name = "cogcomp-done" then complete := true
      | Down _ -> has_down := true
      | Informed { node; _ } -> informed := node :: !informed
      | Sent_value { slot; node; r } when !in_p4 ->
          Hashtbl.replace sent (slot, node) r;
          Hashtbl.replace sent_hist node
            ((slot, r) :: Option.value ~default:[] (Hashtbl.find_opt sent_hist node))
      | Value_delivered { slot; sender; receiver; r } when !in_p4 ->
          delivered := (slot, sender, receiver, r) :: !delivered
      | Retired { slot; node } when !in_p4 -> (
          match Hashtbl.find_opt retired node with
          | Some prev ->
              report
                (v "phase4-drain" "node %d retired twice (slots %d and %d)" node prev
                   slot)
          | None -> Hashtbl.replace retired node slot)
      | _ -> ())
    t;
  let delivered = List.rev !delivered in
  (* Every delivery matches a send by the sender with the same cluster
     slot r. The echo confirming a delivery goes out in the slot after
     the Values broadcast (steps are announce/values/echo triples), so in
     a fault-free run the send is at exactly [slot - 1]. In a faulty run
     (any [Down] event present) the echo may be deferred — the receiver
     can miss its echo slot, or re-ack a retried send it already folded —
     so the strict same-step requirement is relaxed to "some strictly
     earlier send of the same cluster". *)
  List.iter
    (fun (slot, sender, _receiver, r) ->
      if !has_down then begin
        let sends =
          Option.value ~default:[] (Hashtbl.find_opt sent_hist sender)
        in
        if not (List.exists (fun (s', r') -> s' < slot && r' = r) sends) then
          report
            (v "phase4-drain"
               "slot %d: delivery from %d (cluster %d) without any earlier \
                matching send"
               slot sender r)
      end
      else
        match Hashtbl.find_opt sent (slot - 1, sender) with
        | Some r' when r' = r -> ()
        | Some r' ->
            report
              (v "phase4-drain"
                 "slot %d: delivery credits sender %d with cluster %d but it sent \
                  cluster %d"
                 slot sender r r')
        | None ->
            report
              (v "phase4-drain" "slot %d: delivery from %d without a matching send"
                 slot sender))
    delivered;
  (* Conservation: each node's value moves up at most once; exactly once
     for every informed node when the run completed. *)
  let delivered_count : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, sender, _, _) ->
      Hashtbl.replace delivered_count sender
        (1 + Option.value ~default:0 (Hashtbl.find_opt delivered_count sender)))
    delivered;
  Hashtbl.iter
    (fun sender count ->
      if count > 1 then
        report (v "phase4-drain" "node %d's value was delivered %d times" sender count))
    delivered_count;
  (if !complete then
     List.iter
       (fun node ->
         if Option.value ~default:0 (Hashtbl.find_opt delivered_count node) = 0 then
           report
             (v "phase4-drain"
                "run declared complete but informed node %d's value was never \
                 delivered"
                node))
       !informed);
  (* Monotone drain: per receiver, delivered cluster slots never increase
     (clusters are consumed in descending r). *)
  let last_r : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (slot, _, receiver, r) ->
      (match Hashtbl.find_opt last_r receiver with
      | Some prev when r > prev ->
          report
            (v "phase4-drain"
               "receiver %d collected cluster %d after cluster %d (slot %d): drain \
                not monotone"
               receiver r prev slot)
      | _ -> ());
      Hashtbl.replace last_r receiver r)
    delivered;
  List.rev !violations

(* No value is ever double-counted, retries or not: at most one
   [Value_delivered] per sender across the whole phase-4 segment, and
   every delivery is backed by some strictly earlier send of the same
   cluster. This is the invariant the robust drain's receiver-side dedup
   (fold once, re-ack silently) exists to maintain; unlike [phase4_drain]
   it makes no same-step assumption, so it applies equally to fault-free
   and faulty traces. *)
let exactly_once_drain t =
  let violations = ref [] in
  let report vl = violations := vl :: !violations in
  let in_p4 = ref false in
  let sent_hist : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let delivered = ref [] in
  iter
    (fun ev ->
      match ev with
      | Phase { name } -> in_p4 := name = "cogcomp-phase4"
      | Sent_value { slot; node; r } when !in_p4 ->
          Hashtbl.replace sent_hist node
            ((slot, r) :: Option.value ~default:[] (Hashtbl.find_opt sent_hist node))
      | Value_delivered { slot; sender; receiver = _; r } when !in_p4 ->
          delivered := (slot, sender, r) :: !delivered
      | _ -> ())
    t;
  let delivered = List.rev !delivered in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (slot, sender, r) ->
      let c = 1 + Option.value ~default:0 (Hashtbl.find_opt counts sender) in
      Hashtbl.replace counts sender c;
      if c > 1 then
        report
          (v "exactly-once-drain"
             "node %d's value was counted %d times (latest at slot %d)" sender c slot);
      let sends = Option.value ~default:[] (Hashtbl.find_opt sent_hist sender) in
      if not (List.exists (fun (s', r') -> s' < slot && r' = r) sends) then
        report
          (v "exactly-once-drain"
             "slot %d: delivery from %d (cluster %d) without an earlier matching send"
             slot sender r))
    delivered;
  List.rev !violations

(* Multi-rumor causality, over [Injected] / [Rumor_delivered] /
   [Rumor_done] events from the workload protocols. A rumor is injected
   at most once; every delivery names a rumor that was injected, a node
   other than its origin that learns it at most once, and a parent that
   already carried the rumor — the origin no earlier than the injection
   slot, any other node strictly after its own delivery (a node can only
   relay a rumor from the slot after it learned it). [Rumor_done] fires
   at most once per rumor and only once every node knows it: with a
   [Meta] header present, exactly [n - 1] distinct non-origin nodes must
   have deliveries no later than the done slot. *)
let rumor_causality t =
  let violations = ref [] in
  let report vl = violations := vl :: !violations in
  let meta_n =
    fold (fun acc ev -> match ev with Meta { n; _ } -> Some n | _ -> acc) None t
  in
  let injected : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let delivered_at : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let delivered_nodes : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let done_at : (int, int) Hashtbl.t = Hashtbl.create 64 in
  iter
    (fun ev ->
      match ev with
      | Injected { slot; rumor; node } -> (
          match Hashtbl.find_opt injected rumor with
          | Some (prev_slot, _) ->
              report
                (v "rumor-causality" "rumor %d injected twice (slots %d and %d)"
                   rumor prev_slot slot)
          | None -> Hashtbl.replace injected rumor (slot, node))
      | Rumor_delivered { slot; rumor; node; parent } -> (
          match Hashtbl.find_opt injected rumor with
          | None ->
              report
                (v "rumor-causality"
                   "rumor %d delivered to node %d at slot %d before any injection"
                   rumor node slot)
          | Some (inj_slot, origin) ->
              if node = origin then
                report
                  (v "rumor-causality"
                     "rumor %d delivered to its own origin %d at slot %d" rumor node
                     slot);
              if parent = node then
                report
                  (v "rumor-causality" "rumor %d: node %d is its own parent at slot %d"
                     rumor node slot);
              (match Hashtbl.find_opt delivered_at (rumor, node) with
              | Some prev ->
                  report
                    (v "rumor-causality"
                       "rumor %d delivered to node %d twice (slots %d and %d)" rumor
                       node prev slot)
              | None ->
                  Hashtbl.replace delivered_at (rumor, node) slot;
                  Hashtbl.replace delivered_nodes rumor
                    (node
                    :: Option.value ~default:[]
                         (Hashtbl.find_opt delivered_nodes rumor)));
              if parent = origin then begin
                if slot < inj_slot then
                  report
                    (v "rumor-causality"
                       "rumor %d delivered to node %d at slot %d, before its \
                        injection at slot %d"
                       rumor node slot inj_slot)
              end
              else
                match Hashtbl.find_opt delivered_at (rumor, parent) with
                | None ->
                    report
                      (v "rumor-causality"
                         "rumor %d delivered to node %d at slot %d by %d, which \
                          never learned it before"
                         rumor node slot parent)
                | Some ps when ps >= slot ->
                    report
                      (v "rumor-causality"
                         "rumor %d delivered to node %d at slot %d by %d, which \
                          learned it only at slot %d"
                         rumor node slot parent ps)
                | Some _ -> ())
      | Rumor_done { slot; rumor } -> (
          (match Hashtbl.find_opt done_at rumor with
          | Some prev ->
              report
                (v "rumor-causality" "rumor %d done twice (slots %d and %d)" rumor
                   prev slot)
          | None -> Hashtbl.replace done_at rumor slot);
          match Hashtbl.find_opt injected rumor with
          | None ->
              report
                (v "rumor-causality" "rumor %d done at slot %d but never injected"
                   rumor slot)
          | Some _ -> ())
      | _ -> ())
    t;
  (match meta_n with
  | None ->
      if Hashtbl.length done_at > 0 then
        report (v "rumor-causality" "trace has Rumor_done events but no Meta header")
  | Some n ->
      Hashtbl.iter
        (fun rumor slot ->
          if Hashtbl.mem injected rumor then begin
            let timely =
              List.filter
                (fun node ->
                  match Hashtbl.find_opt delivered_at (rumor, node) with
                  | Some s -> s <= slot
                  | None -> false)
                (Option.value ~default:[] (Hashtbl.find_opt delivered_nodes rumor))
            in
            if List.length timely <> n - 1 then
              report
                (v "rumor-causality"
                   "rumor %d done at slot %d with %d of %d non-origin nodes \
                    delivered"
                   rumor slot (List.length timely) (n - 1))
          end)
        done_at);
  List.rev !violations

let all t =
  one_winner t @ informed_tree t @ phase4_drain t @ exactly_once_drain t
  @ rumor_causality t
