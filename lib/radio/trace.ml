module Json = Crn_stats.Json

(* ------------------------------------------------------------------ *)
(* Aggregate counters (always on).                                     *)
(* ------------------------------------------------------------------ *)

module Counters = struct
  type t = {
    mutable slots_run : int;
    mutable broadcasts : int;
    mutable wins : int;
    mutable contended : int;
    mutable deliveries : int;
    mutable jammed_actions : int;
  }

  let create () =
    {
      slots_run = 0;
      broadcasts = 0;
      wins = 0;
      contended = 0;
      deliveries = 0;
      jammed_actions = 0;
    }

  let reset t =
    t.slots_run <- 0;
    t.broadcasts <- 0;
    t.wins <- 0;
    t.contended <- 0;
    t.deliveries <- 0;
    t.jammed_actions <- 0

  let add ~into t =
    into.slots_run <- into.slots_run + t.slots_run;
    into.broadcasts <- into.broadcasts + t.broadcasts;
    into.wins <- into.wins + t.wins;
    into.contended <- into.contended + t.contended;
    into.deliveries <- into.deliveries + t.deliveries;
    into.jammed_actions <- into.jammed_actions + t.jammed_actions

  let contention_rate t =
    if t.wins = 0 then 0.0 else float_of_int t.contended /. float_of_int t.wins

  let pp fmt t =
    Format.fprintf fmt
      "slots=%d broadcasts=%d wins=%d contended=%d deliveries=%d jammed=%d"
      t.slots_run t.broadcasts t.wins t.contended t.deliveries t.jammed_actions
end

(* ------------------------------------------------------------------ *)
(* Events and the trace buffer.                                        *)
(* ------------------------------------------------------------------ *)

type event =
  | Meta of { n : int; channels : int; c : int; source : int }
  | Phase of { name : string }
  | Decide of { slot : int; node : int; channel : int; label : int; tx : bool }
  | Win of { slot : int; channel : int; winner : int; contenders : int }
  | Deliver of { slot : int; channel : int; sender : int; receiver : int }
  | Silent of { slot : int; node : int; channel : int }
  | Jam of { slot : int; node : int; channel : int }
  | Down of { slot : int; node : int }
  | Session of {
      slot : int;
      channel : int;
      contenders : int;
      rounds : int;
      ok : bool;
    }
  | Informed of { slot : int; node : int; parent : int; label : int }
  | Mediator of { node : int }
  | Sent_value of { slot : int; node : int; r : int }
  | Value_delivered of { slot : int; sender : int; receiver : int; r : int }
  | Retired of { slot : int; node : int }
  | Injected of { slot : int; rumor : int; node : int }
  | Rumor_delivered of { slot : int; rumor : int; node : int; parent : int }
  | Rumor_done of { slot : int; rumor : int }
  | Adversary of { name : string; budget : int }
  | Reassigned of { slot : int; nodes_changed : int }

type t = { mutable buf : event array; mutable len : int }

let dummy = Phase { name = "" }

let create ?(capacity = 256) () = { buf = Array.make (max 1 capacity) dummy; len = 0 }

let record t ev =
  if t.len = Array.length t.buf then begin
    let grown = Array.make (2 * t.len) dummy in
    Array.blit t.buf 0 grown 0 t.len;
    t.buf <- grown
  end;
  t.buf.(t.len) <- ev;
  t.len <- t.len + 1

let preamble t ~availability ~source ~name =
  let module Dynamic = Crn_channel.Dynamic in
  let n = Dynamic.num_nodes availability in
  let c = Dynamic.channels_per_node availability in
  let channels = Crn_channel.Assignment.num_channels (Dynamic.at availability 0) in
  record t (Meta { n; channels; c; source });
  record t (Phase { name })

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: index out of bounds";
  t.buf.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done

let fold f init t =
  let acc = ref init in
  iter (fun ev -> acc := f !acc ev) t;
  !acc

let to_list t = List.init t.len (fun i -> t.buf.(i))

let of_list events =
  let t = create ~capacity:(max 1 (List.length events)) () in
  List.iter (fun ev -> record t ev) events;
  t

let clear t = t.len <- 0

(* ------------------------------------------------------------------ *)
(* JSONL serialization.                                                *)
(* ------------------------------------------------------------------ *)

let json_of_event ev =
  let obj tag fields = Json.Obj (("ev", Json.String tag) :: fields) in
  let i v = Json.Int v in
  match ev with
  | Meta { n; channels; c; source } ->
      obj "meta" [ ("n", i n); ("C", i channels); ("c", i c); ("source", i source) ]
  | Phase { name } -> obj "phase" [ ("name", Json.String name) ]
  | Decide { slot; node; channel; label; tx } ->
      obj "decide"
        [
          ("slot", i slot);
          ("node", i node);
          ("ch", i channel);
          ("label", i label);
          ("tx", Json.Bool tx);
        ]
  | Win { slot; channel; winner; contenders } ->
      obj "win"
        [
          ("slot", i slot);
          ("ch", i channel);
          ("winner", i winner);
          ("contenders", i contenders);
        ]
  | Deliver { slot; channel; sender; receiver } ->
      obj "deliver"
        [
          ("slot", i slot);
          ("ch", i channel);
          ("sender", i sender);
          ("receiver", i receiver);
        ]
  | Silent { slot; node; channel } ->
      obj "silent" [ ("slot", i slot); ("node", i node); ("ch", i channel) ]
  | Jam { slot; node; channel } ->
      obj "jam" [ ("slot", i slot); ("node", i node); ("ch", i channel) ]
  | Down { slot; node } -> obj "down" [ ("slot", i slot); ("node", i node) ]
  | Session { slot; channel; contenders; rounds; ok } ->
      obj "session"
        [
          ("slot", i slot);
          ("ch", i channel);
          ("contenders", i contenders);
          ("rounds", i rounds);
          ("ok", Json.Bool ok);
        ]
  | Informed { slot; node; parent; label } ->
      obj "informed"
        [ ("slot", i slot); ("node", i node); ("parent", i parent); ("label", i label) ]
  | Mediator { node } -> obj "mediator" [ ("node", i node) ]
  | Sent_value { slot; node; r } ->
      obj "sent_value" [ ("slot", i slot); ("node", i node); ("r", i r) ]
  | Value_delivered { slot; sender; receiver; r } ->
      obj "value_delivered"
        [ ("slot", i slot); ("sender", i sender); ("receiver", i receiver); ("r", i r) ]
  | Retired { slot; node } -> obj "retired" [ ("slot", i slot); ("node", i node) ]
  | Injected { slot; rumor; node } ->
      obj "injected" [ ("slot", i slot); ("rumor", i rumor); ("node", i node) ]
  | Rumor_delivered { slot; rumor; node; parent } ->
      obj "rumor_delivered"
        [ ("slot", i slot); ("rumor", i rumor); ("node", i node); ("parent", i parent) ]
  | Rumor_done { slot; rumor } ->
      obj "rumor_done" [ ("slot", i slot); ("rumor", i rumor) ]
  | Adversary { name; budget } ->
      obj "adversary" [ ("name", Json.String name); ("budget", i budget) ]
  | Reassigned { slot; nodes_changed } ->
      obj "reassigned" [ ("slot", i slot); ("nodes_changed", i nodes_changed) ]

let event_of_json j =
  let ( let* ) = Option.bind in
  let int_m key = match Json.member key j with Some (Json.Int v) -> Some v | _ -> None in
  let bool_m key =
    match Json.member key j with Some (Json.Bool v) -> Some v | _ -> None
  in
  let str_m key =
    match Json.member key j with Some (Json.String v) -> Some v | _ -> None
  in
  let* tag = str_m "ev" in
  match tag with
  | "meta" ->
      let* n = int_m "n" in
      let* channels = int_m "C" in
      let* c = int_m "c" in
      let* source = int_m "source" in
      Some (Meta { n; channels; c; source })
  | "phase" ->
      let* name = str_m "name" in
      Some (Phase { name })
  | "decide" ->
      let* slot = int_m "slot" in
      let* node = int_m "node" in
      let* channel = int_m "ch" in
      let* label = int_m "label" in
      let* tx = bool_m "tx" in
      Some (Decide { slot; node; channel; label; tx })
  | "win" ->
      let* slot = int_m "slot" in
      let* channel = int_m "ch" in
      let* winner = int_m "winner" in
      let* contenders = int_m "contenders" in
      Some (Win { slot; channel; winner; contenders })
  | "deliver" ->
      let* slot = int_m "slot" in
      let* channel = int_m "ch" in
      let* sender = int_m "sender" in
      let* receiver = int_m "receiver" in
      Some (Deliver { slot; channel; sender; receiver })
  | "silent" ->
      let* slot = int_m "slot" in
      let* node = int_m "node" in
      let* channel = int_m "ch" in
      Some (Silent { slot; node; channel })
  | "jam" ->
      let* slot = int_m "slot" in
      let* node = int_m "node" in
      let* channel = int_m "ch" in
      Some (Jam { slot; node; channel })
  | "down" ->
      let* slot = int_m "slot" in
      let* node = int_m "node" in
      Some (Down { slot; node })
  | "session" ->
      let* slot = int_m "slot" in
      let* channel = int_m "ch" in
      let* contenders = int_m "contenders" in
      let* rounds = int_m "rounds" in
      let* ok = bool_m "ok" in
      Some (Session { slot; channel; contenders; rounds; ok })
  | "informed" ->
      let* slot = int_m "slot" in
      let* node = int_m "node" in
      let* parent = int_m "parent" in
      let* label = int_m "label" in
      Some (Informed { slot; node; parent; label })
  | "mediator" ->
      let* node = int_m "node" in
      Some (Mediator { node })
  | "sent_value" ->
      let* slot = int_m "slot" in
      let* node = int_m "node" in
      let* r = int_m "r" in
      Some (Sent_value { slot; node; r })
  | "value_delivered" ->
      let* slot = int_m "slot" in
      let* sender = int_m "sender" in
      let* receiver = int_m "receiver" in
      let* r = int_m "r" in
      Some (Value_delivered { slot; sender; receiver; r })
  | "retired" ->
      let* slot = int_m "slot" in
      let* node = int_m "node" in
      Some (Retired { slot; node })
  | "injected" ->
      let* slot = int_m "slot" in
      let* rumor = int_m "rumor" in
      let* node = int_m "node" in
      Some (Injected { slot; rumor; node })
  | "rumor_delivered" ->
      let* slot = int_m "slot" in
      let* rumor = int_m "rumor" in
      let* node = int_m "node" in
      let* parent = int_m "parent" in
      Some (Rumor_delivered { slot; rumor; node; parent })
  | "rumor_done" ->
      let* slot = int_m "slot" in
      let* rumor = int_m "rumor" in
      Some (Rumor_done { slot; rumor })
  | "adversary" ->
      let* name = str_m "name" in
      let* budget = int_m "budget" in
      Some (Adversary { name; budget })
  | "reassigned" ->
      let* slot = int_m "slot" in
      let* nodes_changed = int_m "nodes_changed" in
      Some (Reassigned { slot; nodes_changed })
  | _ -> None

let to_jsonl t =
  let buf = Buffer.create (64 * t.len) in
  iter
    (fun ev ->
      Buffer.add_string buf (Json.to_string ~compact:true (json_of_event ev));
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

let write_jsonl ~path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_jsonl t))

let of_jsonl s =
  let lines = String.split_on_char '\n' s in
  let t = create () in
  let rec go lineno = function
    | [] -> Ok t
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) rest
        else begin
          match Json.of_string line with
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
          | Ok j -> (
              match event_of_json j with
              | None -> Error (Printf.sprintf "line %d: not a trace event" lineno)
              | Some ev ->
                  record t ev;
                  go (lineno + 1) rest)
        end
  in
  go 1 lines

(* ------------------------------------------------------------------ *)
(* Invariant checking.                                                 *)
(* ------------------------------------------------------------------ *)

module Check = struct
  type violation = { invariant : string; detail : string }

  let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.invariant v.detail

  let v invariant fmt = Printf.ksprintf (fun detail -> { invariant; detail }) fmt

  (* Each checker is a fold: built from the trace's header, stepped once
     per event, finished into its violations in the order it found them.
     [run] walks the stored trace once and steps every checker on each
     event. *)
  type checker = { step : event -> unit; finish : unit -> violation list }

  (* The id ranges the checkers' arrays cover: the first Meta header's, or,
     for a trace without one, its own length — every slot records one
     Decide, Jam or Down per node, so a run of one slot or more has no more
     nodes than its trace has events, and the arrays never outgrow the
     trace. A header range no array can hold is the one violation of the
     trace: nothing that reads the header can be checked against it. *)
  type header = { meta : bool; nodes : int; channels : int; source : int }

  let header t =
    let rec find i =
      if i = t.len then Ok { meta = false; nodes = t.len; channels = t.len; source = -1 }
      else
        match t.buf.(i) with
        | Meta { n; channels; source; _ } ->
            let bad what x =
              Error
                (v "meta-header" "Meta header %s %d is %s" what x
                   (if x < 0 then "negative" else "too large to allocate"))
            in
            let fits x = x >= 0 && x <= Sys.max_array_length in
            if not (fits n) then bad "n" n
            else if not (fits channels) then bad "channels" channels
            else Ok { meta = true; nodes = n; channels; source }
        | _ -> find (i + 1)
    in
    find 0

  let run inits t =
    match header t with
    | Error violation -> [ violation ]
    | Ok h -> (
        try
          let checkers = Array.of_list (List.map (fun init -> init h) inits) in
          for i = 0 to t.len - 1 do
            let ev = t.buf.(i) in
            for j = 0 to Array.length checkers - 1 do
              checkers.(j).step ev
            done
          done;
          List.concat_map (fun c -> c.finish ()) (Array.to_list checkers)
        with Out_of_memory ->
          [
            v "meta-header" "Meta header n %d, channels %d: too large to allocate"
              h.nodes h.channels;
          ])

  (* A growable int stack, emptied and refilled slot after slot. *)
  type stack = { mutable items : int array; mutable size : int }

  let stack () = { items = Array.make 16 0; size = 0 }

  let push s x =
    if s.size = Array.length s.items then begin
      let grown = Array.make (2 * s.size) 0 in
      Array.blit s.items 0 grown 0 s.size;
      s.items <- grown
    end;
    s.items.(s.size) <- x;
    s.size <- s.size + 1

  (* [in_range report invariant ~slot what id bound] is whether [id] lies
     in [0, bound); if not, it reports a violation naming the id. *)
  let in_range report invariant ~slot what id bound =
    id >= 0 && id < bound
    || begin
         report (v invariant "slot %d: %s %d out of range [0,%d)" slot what id bound);
         false
       end

  (* One open slot per phase segment. A node's decision and a channel's
     counters are valid while their stamp equals the open slot's; the slot
     is checked when the next slot's first Decide, Session, Win or Deliver
     arrives, at a Phase marker, and at the end of the trace. *)
  let one_winner_init h =
    let out = ref [] in
    let report x = out := x :: !out in
    let node ~slot what id = in_range report "one-winner" ~slot what id h.nodes in
    let chan ~slot id = in_range report "one-winner" ~slot "channel" id h.channels in
    (* Per node: the stamp of the slot it last decided in and
       [2 * channel + tx] of that decision; the segment and slot of its
       last Decide, Jam or Down. *)
    let decided = Array.make h.nodes (-1) and tuned = Array.make h.nodes 0 in
    let acted_seg = Array.make h.nodes (-1) and acted_slot = Array.make h.nodes 0 in
    (* Per channel, for the open slot. *)
    let fresh = Array.make h.channels (-1) in
    let bcasts = Array.make h.channels 0 and nwins = Array.make h.channels 0 in
    let winner = Array.make h.channels 0 and failed = Array.make h.channels false in
    (* The open slot's wins (channel, winner, contenders, first win on the
       channel), channels in order of their first broadcaster, and
       deliveries (channel, sender, receiver). *)
    let wins = stack () and bchans = stack () and delivers = stack () in
    let seg = ref 0 and stamp = ref (-1) and opened = ref false in
    let cur = ref 0 and top = ref min_int in
    let channel ch =
      if fresh.(ch) <> !stamp then begin
        fresh.(ch) <- !stamp;
        bcasts.(ch) <- 0;
        nwins.(ch) <- 0;
        failed.(ch) <- false
      end
    in
    let close () =
      let slot = !cur and st = !stamp in
      let w = wins.items in
      for i = 0 to (wins.size / 4) - 1 do
        let ch = w.(4 * i) and wn = w.((4 * i) + 1) and contenders = w.((4 * i) + 2) in
        if w.((4 * i) + 3) = 1 && nwins.(ch) > 1 then
          report (v "one-winner" "slot %d channel %d has %d winners" slot ch nwins.(ch));
        if decided.(wn) <> st || tuned.(wn) <> (2 * ch) + 1 then
          report
            (v "one-winner" "slot %d channel %d: winner %d was not an audible broadcaster"
               slot ch wn);
        if contenders <> bcasts.(ch) then
          report
            (v "one-winner" "slot %d channel %d: win records %d contenders, trace shows %d"
               slot ch contenders bcasts.(ch))
      done;
      for i = 0 to bchans.size - 1 do
        let ch = bchans.items.(i) in
        if nwins.(ch) = 0 && not failed.(ch) then
          report
            (v "one-winner"
               "slot %d channel %d has broadcasters but no winner and no failed session"
               slot ch)
      done;
      let d = delivers.items in
      for i = 0 to (delivers.size / 3) - 1 do
        let ch = d.(3 * i) and sender = d.((3 * i) + 1) and receiver = d.((3 * i) + 2) in
        if nwins.(ch) = 1 && winner.(ch) = sender then ()
        else if nwins.(ch) > 0 then
          report
            (v "one-winner" "slot %d channel %d: delivery from %d does not match the winner"
               slot ch sender)
        else
          report
            (v "one-winner" "slot %d channel %d: delivery from %d without a win" slot ch
               sender);
        if decided.(receiver) <> st || tuned.(receiver) <> 2 * ch then
          report
            (v "one-winner" "slot %d channel %d: receiver %d was not listening there" slot
               ch receiver)
      done;
      wins.size <- 0;
      bchans.size <- 0;
      delivers.size <- 0
    in
    (* Open [slot] unless it is the open one. A segment's slots come in
       ascending blocks, so a slot at or below the highest one opened so
       far means its events are not adjacent. *)
    let enter slot =
      if (not !opened) || slot <> !cur then begin
        if !opened then begin
          close ();
          if slot <= !top then
            report
              (v "one-winner"
                 "slot %d resumes after slot %d: a slot's Decide, Session, Win and \
                  Deliver events must be adjacent, in ascending slot order"
                 slot !cur)
        end;
        incr stamp;
        cur := slot;
        opened := true;
        top := max !top slot
      end
    in
    let act ~slot nd =
      if acted_seg.(nd) = !seg && acted_slot.(nd) = slot then
        report
          (v "one-winner" "slot %d: node %d has more than one Decide, Jam or Down" slot nd);
      acted_seg.(nd) <- !seg;
      acted_slot.(nd) <- slot
    in
    let step = function
      | Phase _ ->
          if !opened then close ();
          opened := false;
          top := min_int;
          incr seg
      | Decide { slot; node = nd; channel = ch; tx; _ } ->
          enter slot;
          let ok_node = node ~slot "node" nd in
          let ok_chan = chan ~slot ch in
          if ok_node then act ~slot nd;
          if ok_node && ok_chan then begin
            decided.(nd) <- !stamp;
            tuned.(nd) <- (2 * ch) + Bool.to_int tx;
            if tx then begin
              channel ch;
              if bcasts.(ch) = 0 then push bchans ch;
              bcasts.(ch) <- bcasts.(ch) + 1
            end
          end
      | Jam { slot; node = nd; _ } | Down { slot; node = nd } ->
          if node ~slot "node" nd then act ~slot nd
      | Session { slot; channel = ch; ok; _ } ->
          enter slot;
          if chan ~slot ch && not ok then begin
            channel ch;
            failed.(ch) <- true
          end
      | Win { slot; channel = ch; winner = wn; contenders } ->
          enter slot;
          let ok_chan = chan ~slot ch in
          if node ~slot "winner" wn && ok_chan then begin
            channel ch;
            push wins ch;
            push wins wn;
            push wins contenders;
            push wins (Bool.to_int (nwins.(ch) = 0));
            if nwins.(ch) = 0 then winner.(ch) <- wn;
            nwins.(ch) <- nwins.(ch) + 1
          end
      | Deliver { slot; channel = ch; sender; receiver } ->
          enter slot;
          let ok_chan = chan ~slot ch in
          let ok_sender = node ~slot "sender" sender in
          if node ~slot "receiver" receiver && ok_sender && ok_chan then begin
            channel ch;
            push delivers ch;
            push delivers sender;
            push delivers receiver
          end
      | _ -> ()
    in
    let finish () =
      if !opened then close ();
      List.rev !out
    in
    { step; finish }

  (* Node [node]'s fate along its parent chain: reaches the source, runs
     into a cycle, or breaks at the first node (>= 0) that is not the
     source and has no parent. Chains are walked once: every node on a
     walk takes the walk's fate. *)
  let reaches = -1
  let cycle = -2
  let unknown = -3
  let walking = -4

  let chain_violations report ~n ~source parent_of =
    let fate = Array.make (Array.length parent_of) unknown in
    let path = stack () in
    for node = 0 to n - 1 do
      if parent_of.(node) >= 0 then begin
        let cur = ref node and outcome = ref unknown in
        while !outcome = unknown do
          let c = !cur in
          if c = source then outcome := reaches
          else if c >= n then outcome := c
          else if fate.(c) = walking then outcome := cycle
          else if fate.(c) <> unknown then outcome := fate.(c)
          else if parent_of.(c) < 0 then outcome := c
          else begin
            fate.(c) <- walking;
            push path c;
            cur := parent_of.(c)
          end
        done;
        for i = 0 to path.size - 1 do
          fate.(path.items.(i)) <- !outcome
        done;
        path.size <- 0;
        if !outcome = cycle then
          report (v "informed-tree" "node %d: parent chain has a cycle" node)
        else if !outcome >= 0 then
          report
            (v "informed-tree" "node %d: chain breaks at %d before the source" node
               !outcome)
      end
    done

  let informed_tree_init h =
    let out = ref [] in
    let report x = out := x :: !out in
    let n = h.nodes and source = h.source in
    let tables = lazy (Array.make (max n 1) (-1), Array.make (max n 1) (-1)) in
    let headless = ref false in
    let step = function
      | Informed { slot; node; parent; label = _ } ->
          if not h.meta then begin
            if not !headless then
              report (v "informed-tree" "trace has Informed events but no Meta header");
            headless := true
          end
          else
            let informed_at, parent_of = Lazy.force tables in
            if node < 0 || node >= n then
              report (v "informed-tree" "informed node %d out of range [0,%d)" node n)
            else begin
              if parent_of.(node) = -1 then parent_of.(node) <- parent;
              if parent < 0 || parent >= n then
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
                  (* Informer precedes informee: the parent must be the
                     source or have been informed in a strictly earlier
                     slot (an informed node only starts broadcasting in the
                     slot after it was informed). *)
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
                              "node %d informed at slot %d by %d, informed only at \
                               slot %d"
                              node slot parent ps)
                     | _ -> ());
                  informed_at.(node) <- slot
                end
              end
            end
      | _ -> ()
    in
    let finish () =
      (* Acyclicity and parent-edge validity, walking every chain to the
         root. Redundant when the slot checks pass, but catches
         consistently corrupted traces. *)
      if Lazy.is_val tables then
        chain_violations report ~n ~source (snd (Lazy.force tables));
      List.rev !out
    in
    { step; finish }

  (* Phase-4 sends seen so far, per node: its latest two send slots with
     their clusters (the same-step match looks one slot back) and, per
     cluster, its first send slot (the relaxed match asks for any earlier
     send). A send always precedes, in the stream, the echo slot that
     delivers it. *)
  type sends = {
    last : int array;
    last_r : int array;
    prev : int array;
    prev_r : int array;
    firsts : (int * int) list array;
  }

  let sends n =
    {
      last = Array.make n min_int;
      last_r = Array.make n 0;
      prev = Array.make n min_int;
      prev_r = Array.make n 0;
      firsts = Array.make n [];
    }

  let send s ~slot ~node ~r =
    if s.last.(node) = slot then s.last_r.(node) <- r
    else begin
      s.prev.(node) <- s.last.(node);
      s.prev_r.(node) <- s.last_r.(node);
      s.last.(node) <- slot;
      s.last_r.(node) <- r
    end;
    if not (List.mem_assoc r s.firsts.(node)) then
      s.firsts.(node) <- (r, slot) :: s.firsts.(node)

  (* The cluster [node] sent at [slot], or [None]. *)
  let sent_at s ~node ~slot =
    if s.last.(node) = slot then Some s.last_r.(node)
    else if s.prev.(node) = slot then Some s.prev_r.(node)
    else None

  let sent_before s ~node ~slot ~r =
    List.exists (fun (r', first) -> r' = r && first < slot) s.firsts.(node)

  let phase4_init h =
    (* Violations tagged with the traces they hold on: the same-step match
       applies only to fault-free traces, the relaxed one only to faulty
       ones, and a trace is faulty if any Down event appears in it. *)
    let out = ref [] in
    let report ?(keep = `Always) x = out := (keep, x) :: !out in
    let n = h.nodes in
    let node ~slot what id = in_range (fun x -> report x) "phase4-drain" ~slot what id n in
    let in_p4 = ref false and complete = ref false and has_down = ref false in
    let informed = stack () in
    let state =
      lazy (sends n, Array.make n 0, Array.make n min_int, Array.make n min_int)
    in
    let step = function
      | Phase { name } ->
          in_p4 := name = "cogcomp-phase4";
          if name = "cogcomp-done" then complete := true
      | Down _ -> has_down := true
      | Informed { node; _ } -> push informed node
      | Sent_value { slot; node = nd; r } when !in_p4 ->
          if node ~slot "node" nd then begin
            let s, _, _, _ = Lazy.force state in
            send s ~slot ~node:nd ~r
          end
      | Value_delivered { slot; sender; receiver; r } when !in_p4 ->
          let ok_sender = node ~slot "sender" sender in
          if node ~slot "receiver" receiver && ok_sender then begin
            let s, delivered, _, last_r = Lazy.force state in
            (* Every delivery matches a send by the sender with the same
               cluster slot r. The echo confirming a delivery goes out in
               the slot after the Values broadcast (steps are
               announce/values/echo triples), so in a fault-free run the
               send is at exactly [slot - 1]. In a faulty run the echo may
               be deferred — the receiver can miss its echo slot, or re-ack
               a retried send it already folded — so the requirement is
               relaxed to "some strictly earlier send of the same
               cluster". *)
            (match sent_at s ~node:sender ~slot:(slot - 1) with
            | Some r' when r' = r -> ()
            | Some r' ->
                report ~keep:`Fault_free
                  (v "phase4-drain"
                     "slot %d: delivery credits sender %d with cluster %d but it sent \
                      cluster %d"
                     slot sender r r')
            | None ->
                report ~keep:`Fault_free
                  (v "phase4-drain" "slot %d: delivery from %d without a matching send"
                     slot sender));
            if not (sent_before s ~node:sender ~slot ~r) then
              report ~keep:`Faulty
                (v "phase4-drain"
                   "slot %d: delivery from %d (cluster %d) without any earlier matching \
                    send"
                   slot sender r);
            delivered.(sender) <- delivered.(sender) + 1;
            (* Monotone drain: per receiver, delivered cluster slots never
               increase (clusters are consumed in descending r). *)
            let prev = last_r.(receiver) in
            if prev <> min_int && r > prev then
              report
                (v "phase4-drain"
                   "receiver %d collected cluster %d after cluster %d (slot %d): drain \
                    not monotone"
                   receiver r prev slot);
            last_r.(receiver) <- r
          end
      | Retired { slot; node = nd } when !in_p4 ->
          if node ~slot "node" nd then begin
            let _, _, retired, _ = Lazy.force state in
            if retired.(nd) <> min_int then
              report
                (v "phase4-drain" "node %d retired twice (slots %d and %d)" nd
                   retired.(nd) slot)
            else retired.(nd) <- slot
          end
      | _ -> ()
    in
    let finish () =
      (* Conservation: each node's value moves up at most once; exactly
         once for every informed node when the run completed. *)
      let delivered nd =
        if Lazy.is_val state && nd >= 0 && nd < n then
          let _, d, _, _ = Lazy.force state in
          d.(nd)
        else 0
      in
      if Lazy.is_val state then
        for nd = 0 to n - 1 do
          if delivered nd > 1 then
            report
              (v "phase4-drain" "node %d's value was delivered %d times" nd (delivered nd))
        done;
      if !complete then
        for i = 0 to informed.size - 1 do
          let nd = informed.items.(i) in
          if delivered nd = 0 then
            report
              (v "phase4-drain"
                 "run declared complete but informed node %d's value was never delivered"
                 nd)
        done;
      List.filter_map
        (fun (keep, x) ->
          match keep with
          | `Always -> Some x
          | `Fault_free -> if !has_down then None else Some x
          | `Faulty -> if !has_down then Some x else None)
        (List.rev !out)
    in
    { step; finish }

  (* No value is ever double-counted, retries or not: at most one
     [Value_delivered] per sender across the whole phase-4 segment, and
     every delivery is backed by some strictly earlier send of the same
     cluster. This is the invariant the robust drain's receiver-side dedup
     (fold once, re-ack silently) exists to maintain; unlike [phase4_drain]
     it makes no same-step assumption, so it applies equally to fault-free
     and faulty traces. *)
  let exactly_once_init h =
    let out = ref [] in
    let report x = out := x :: !out in
    let n = h.nodes in
    let node ~slot what id = in_range report "exactly-once-drain" ~slot what id n in
    let in_p4 = ref false in
    let state = lazy (sends n, Array.make n 0) in
    let step = function
      | Phase { name } -> in_p4 := name = "cogcomp-phase4"
      | Sent_value { slot; node = nd; r } when !in_p4 ->
          if node ~slot "node" nd then send (fst (Lazy.force state)) ~slot ~node:nd ~r
      | Value_delivered { slot; sender; receiver = _; r } when !in_p4 ->
          if node ~slot "sender" sender then begin
            let s, counts = Lazy.force state in
            let c = counts.(sender) + 1 in
            counts.(sender) <- c;
            if c > 1 then
              report
                (v "exactly-once-drain"
                   "node %d's value was counted %d times (latest at slot %d)" sender c
                   slot);
            if not (sent_before s ~node:sender ~slot ~r) then
              report
                (v "exactly-once-drain"
                   "slot %d: delivery from %d (cluster %d) without an earlier matching \
                    send"
                   slot sender r)
          end
      | _ -> ()
    in
    { step; finish = (fun () -> List.rev !out) }

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
  type rumor = {
    mutable injected : bool;
    mutable injected_at : int;
    mutable origin : int;
    mutable done_at : int;  (** [min_int] until the first Rumor_done. *)
    mutable learned : int array;
        (** Per node, the slot of its first delivery ([min_int] for none);
            empty until the rumor's first delivery. *)
  }

  let rumor_causality_init h =
    let out = ref [] in
    let report x = out := x :: !out in
    let n = h.nodes in
    let node ~slot what id = in_range report "rumor-causality" ~slot what id n in
    let rumors : (int, rumor) Hashtbl.t = Hashtbl.create 16 in
    let finished = stack () in
    let rumor id =
      match Hashtbl.find rumors id with
      | r -> r
      | exception Not_found ->
          let r =
            { injected = false; injected_at = 0; origin = 0; done_at = min_int; learned = [||] }
          in
          Hashtbl.replace rumors id r;
          r
    in
    let step = function
      | Injected { slot; rumor = id; node = nd } ->
          if node ~slot "node" nd then begin
            let r = rumor id in
            if r.injected then
              report
                (v "rumor-causality" "rumor %d injected twice (slots %d and %d)" id
                   r.injected_at slot)
            else begin
              r.injected <- true;
              r.injected_at <- slot;
              r.origin <- nd
            end
          end
      | Rumor_delivered { slot; rumor = id; node = nd; parent } ->
          let ok_parent = node ~slot "parent" parent in
          if node ~slot "node" nd && ok_parent then begin
            let r = rumor id in
            if not r.injected then
              report
                (v "rumor-causality"
                   "rumor %d delivered to node %d at slot %d before any injection" id nd
                   slot)
            else begin
              if nd = r.origin then
                report
                  (v "rumor-causality" "rumor %d delivered to its own origin %d at slot %d"
                     id nd slot);
              if parent = nd then
                report
                  (v "rumor-causality" "rumor %d: node %d is its own parent at slot %d" id
                     nd slot);
              if r.learned = [||] then r.learned <- Array.make n min_int;
              let prev = r.learned.(nd) in
              if prev <> min_int then
                report
                  (v "rumor-causality"
                     "rumor %d delivered to node %d twice (slots %d and %d)" id nd prev
                     slot)
              else r.learned.(nd) <- slot;
              if parent = r.origin then begin
                if slot < r.injected_at then
                  report
                    (v "rumor-causality"
                       "rumor %d delivered to node %d at slot %d, before its injection \
                        at slot %d"
                       id nd slot r.injected_at)
              end
              else
                let ps = r.learned.(parent) in
                if ps = min_int then
                  report
                    (v "rumor-causality"
                       "rumor %d delivered to node %d at slot %d by %d, which never \
                        learned it before"
                       id nd slot parent)
                else if ps >= slot then
                  report
                    (v "rumor-causality"
                       "rumor %d delivered to node %d at slot %d by %d, which learned it \
                        only at slot %d"
                       id nd slot parent ps)
            end
          end
      | Rumor_done { slot; rumor = id } ->
          let r = rumor id in
          if r.done_at <> min_int then
            report
              (v "rumor-causality" "rumor %d done twice (slots %d and %d)" id r.done_at
                 slot)
          else begin
            r.done_at <- slot;
            push finished id
          end;
          if not r.injected then
            report
              (v "rumor-causality" "rumor %d done at slot %d but never injected" id slot)
      | _ -> ()
    in
    let finish () =
      if not h.meta then begin
        if finished.size > 0 then
          report (v "rumor-causality" "trace has Rumor_done events but no Meta header")
      end
      else
        for i = 0 to finished.size - 1 do
          let id = finished.items.(i) in
          let r = Hashtbl.find rumors id in
          if r.injected then begin
            let timely =
              Array.fold_left
                (fun acc s -> if s <> min_int && s <= r.done_at then acc + 1 else acc)
                0 r.learned
            in
            if timely <> n - 1 then
              report
                (v "rumor-causality"
                   "rumor %d done at slot %d with %d of %d non-origin nodes delivered" id
                   r.done_at timely (n - 1))
          end
        done;
      List.rev !out
    in
    { step; finish }

  let one_winner = run [ one_winner_init ]
  let informed_tree = run [ informed_tree_init ]
  let phase4_drain = run [ phase4_init ]
  let exactly_once_drain = run [ exactly_once_init ]
  let rumor_causality = run [ rumor_causality_init ]

  let all =
    run
      [
        one_winner_init;
        informed_tree_init;
        phase4_init;
        exactly_once_init;
        rumor_causality_init;
      ]
end
