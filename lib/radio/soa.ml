(* Struct-of-arrays slot engine: the one implementation of the §2 slot.

   {!Engine.run} is a front over this loop at one shard (through
   {!Soa_adapter}), and {!Emulation.run} is the same front with a
   contention-session resolver in place of the uniform winner draw, so
   every slot-level caller runs here; the list-based {!Reference} runs are
   the executable specifications it is differentially tested against. The
   representation is flat so that the same loop serves n = 10^5..10^6,
   where a pointer graph of per-node records stops fitting in cache and a
   single core stops being enough:

   - Node state is five dense arrays indexed by node id (one intent byte,
     label, message, tuned global channel) so a slot's working set streams
     through cache instead of chasing pointers.
   - The per-node phases (fault marking, protocol decide, label
     translation and jamming, winner selection, listener accounting,
     protocol feedback) shard across contiguous node-id ranges on the
     {!Crn_exec.Pool} domains. Channel-indexed accumulators are private
     per shard and merged between phases, so no two domains ever write the
     same word.
   - Channel resolution walks an O(active) worklist: only channels that
     gained a broadcaster this slot are visited, and the worklist is
     produced in ascending global channel id (the canonical order) either
     directly by the dense merge scan or by {!sort_prefix}.

   Determinism is the load-bearing constraint. Per-shard pre-split RNG
   streams would make the winner sequence a function of the shard count
   and break byte-equality across [--shards]. Instead the *only* consumer
   of the shared [rng] — the resolver, called once per active channel —
   runs sequentially between the parallel phases, in ascending channel
   order, exactly as the specification consumes it. That is cheap
   (O(active) calls per slot, everything heavy stays parallel) and gives
   the stronger guarantee: the same seed produces the same winner sequence
   as the specification *and* at any shard count.

   A resolver picks the [widx]-th broadcaster in descending node id (the
   list order of the specification). On a flat array we select it without
   building chains: the [widx]-th element in descending order is the
   [(count - widx)]-th encountered when scanning node ids ascending, so
   each channel carries a countdown [need = count - widx] and the
   selection scan decrements it per broadcaster until it hits zero. A
   failed resolution (a capped-out contention session) marks the channel
   with [winner = -1] and [owner = -1], and selects no one.

   Two occupancy-counting strategies, chosen per slot by spectrum size:

   - dense (C <= dense_channel_limit): each shard counts broadcasters into
     a private C-sized row during the decide scan; a sequential merge over
     channels sums rows, building the (already ascending) active list. The
     winner-selection scan also parallelizes: a prefix walk over the
     per-shard subcounts assigns each active channel the shard whose range
     contains the winner, and localizes the countdown to that shard.
   - sparse (C > dense_channel_limit, e.g. shared_core spectra where
     C grows with n): per-shard C-sized rows would dominate, so occupancy
     and selection fall back to sequential O(n) scans over the node
     arrays with a sort of the active list. This is §6's c >> n regime,
     where the sequential-scan crossover lives.

   Both strategies count the same totals and draw in the same order, so
   the choice is observationally invisible.

   Tracing adds two sequential event scans to the same loop — one after
   the decide phase, one after winner selection — and runs it at one
   shard, so the protocol's own events land in one ordered stream. The
   per-slot event order is the one documented in {!Trace}. *)

module Rng = Crn_prng.Rng
module Dynamic = Crn_channel.Dynamic
module Assignment = Crn_channel.Assignment
module Pool = Crn_exec.Pool

let idle = '\000'
let listen = '\001'
let broadcast = '\002'
let jammed_listen = '\003'
let jammed_broadcast = '\004'
let down = '\005'

type t = {
  n : int;
  intent : Bytes.t;  (* node -> intent code, one of the six above *)
  label : int array;  (* node -> local channel label chosen this slot *)
  msg : int array;  (* node -> message payload when broadcasting *)
  tuned : int array;  (* node -> global channel id (valid when audible) *)
  mutable num_channels : int;  (* capacity of the channel-indexed arrays *)
  mutable count : int array;  (* channel -> audible broadcasters this slot *)
  mutable winner : int array;  (* channel -> winning node (count > 0 only) *)
  mutable winner_msg : int array;  (* channel -> winner's message *)
  mutable need : int array;  (* channel -> selection countdown (internal) *)
  mutable owner : int array;  (* channel -> selecting shard (dense mode) *)
  active : int array;  (* channels with >= 1 broadcaster, ascending *)
  mutable active_len : int;
}

type protocol = {
  parallel : bool;
  decide : t -> slot:int -> lo:int -> hi:int -> unit;
  feedback : t -> slot:int -> lo:int -> hi:int -> unit;
}

type outcome = { slots_run : int; stopped_early : bool; counters : Trace.Counters.t }

let create ~num_nodes =
  if num_nodes <= 0 then invalid_arg "Soa.create: num_nodes must be positive";
  {
    n = num_nodes;
    intent = Bytes.make num_nodes idle;
    label = Array.make num_nodes 0;
    msg = Array.make num_nodes 0;
    tuned = Array.make num_nodes (-1);
    num_channels = 0;
    count = [||];
    winner = [||];
    winner_msg = [||];
    need = [||];
    owner = [||];
    active = Array.make num_nodes 0;
    active_len = 0;
  }

let num_nodes t = t.n
let is_down t node = Bytes.unsafe_get t.intent node = down

let set_listen t node ~label =
  Bytes.unsafe_set t.intent node listen;
  t.label.(node) <- label

let set_broadcast t node ~label ~msg =
  Bytes.unsafe_set t.intent node broadcast;
  t.label.(node) <- label;
  t.msg.(node) <- msg

let was_jammed t node =
  let code = Bytes.unsafe_get t.intent node in
  code = jammed_listen || code = jammed_broadcast


(* A channel delivers when it had an audible broadcaster and its
   resolution did not fail. *)
let delivered t channel = t.count.(channel) > 0 && t.winner.(channel) >= 0

let heard t node =
  Bytes.unsafe_get t.intent node = listen && delivered t t.tuned.(node)

let silent t node =
  Bytes.unsafe_get t.intent node = listen && not (delivered t t.tuned.(node))

let sender t node = t.winner.(t.tuned.(node))
let message t node = t.winner_msg.(t.tuned.(node))

let won t node =
  Bytes.unsafe_get t.intent node = broadcast && t.winner.(t.tuned.(node)) = node

let lost t node =
  Bytes.unsafe_get t.intent node = broadcast
  &&
  let w = t.winner.(t.tuned.(node)) in
  w >= 0 && w <> node

let no_winner t node =
  Bytes.unsafe_get t.intent node = broadcast && t.winner.(t.tuned.(node)) < 0

(* Shard [s] of [shards] owns nodes [lo, hi): balanced contiguous ranges,
   empty when shards > n. *)
let shard_lo ~n ~shards s = s * n / shards
let shard_hi ~n ~shards s = (s + 1) * n / shards

let ensure_channels t cn =
  if cn > t.num_channels then begin
    t.count <- Array.make cn 0;
    t.winner <- Array.make cn (-1);
    t.winner_msg <- Array.make cn 0;
    t.need <- Array.make cn 0;
    t.owner <- Array.make cn 0;
    t.num_channels <- cn
  end

(* In-place heapsort of a[0 .. len-1], ascending: O(m log m), no
   allocation, and a canonical order independent of discovery order. *)
let sort_prefix (a : int array) len =
  if len > 1 then begin
    let swap i j =
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    in
    let rec sift i stop =
      let l = (2 * i) + 1 in
      if l < stop then begin
        let c = if l + 1 < stop && a.(l + 1) > a.(l) then l + 1 else l in
        if a.(c) > a.(i) then begin
          swap c i;
          sift c stop
        end
      end
    in
    for i = (len / 2) - 1 downto 0 do
      sift i len
    done;
    for last = len - 1 downto 1 do
      swap 0 last;
      sift 0 last
    done
  end

let bad_label node label c =
  invalid_arg
    (Printf.sprintf "Soa.run: node %d chose label %d outside [0,%d)" node label c)

let run ?pool ?(shards = 1) ?(jammer = Jammer.none) ?(faults = Faults.none)
    ?metrics ?trace ?stop ?on_slot_end ?(dense_channel_limit = 4096) ?resolve
    ~availability ~rng ~protocol ~max_slots () =
  let n = Dynamic.num_nodes availability in
  if n = 0 then invalid_arg "Soa.run: no nodes";
  if max_slots < 0 then invalid_arg "Soa.run: negative max_slots";
  if shards < 1 then invalid_arg "Soa.run: shards must be >= 1";
  (match metrics with
  | Some m ->
      if Array.length m.Metrics.transmissions <> n then
        invalid_arg "Soa.run: metrics sized for a different node count"
  | None -> ());
  let t = create ~num_nodes:n in
  let bump counters i =
    match metrics with
    | Some m -> (counters m).(i) <- (counters m).(i) + 1
    | None -> ()
  in
  (* Hoist the fault/jammer predicates out of their accessor records:
     calling [Faults.down faults ~slot ~node] in a loop over-applies the
     arity-1 accessor and builds a partial-application closure per call.
     Binding them once keeps the hot loops allocation-free. *)
  let faults_down = Faults.down faults in
  let jammer_jams = Jammer.jams jammer in
  (* The §2 resolution: a uniform draw, none for a lone broadcaster. *)
  let resolve =
    match resolve with
    | Some f -> f
    | None ->
        fun ~slot:_ ~channel:_ ~contenders ->
          if contenders = 1 then 0 else Rng.int rng contenders
  in
  let traced = Option.is_some trace in
  let emit ev = match trace with Some tr -> Trace.record tr ev | None -> () in
  (* Recording from several domains would interleave the protocol's own
     events nondeterministically, so a traced run takes one shard. *)
  let shards = if traced then 1 else shards in
  let counters = Trace.Counters.create () in
  let slot = ref 0 in
  let stopped = ref false in
  let end_slot s =
    counters.Trace.Counters.slots_run <- counters.Trace.Counters.slots_run + 1;
    if Jammer.observes jammer then begin
      let occupancy = ref [] in
      for j = t.active_len - 1 downto 0 do
        let channel = t.active.(j) in
        occupancy := (channel, t.count.(channel)) :: !occupancy
      done;
      Jammer.observe jammer ~slot:s !occupancy
    end;
    (match on_slot_end with Some f -> f ~slot:s | None -> ());
    (match stop with Some f -> if f ~slot:s then stopped := true | None -> ());
    incr slot
  in
  (* Trace scans, in the per-slot order {!Trace} documents: Down/Jam/Decide
     after the decide phase, then Win per channel and Deliver/Silent per
     listener once winners are materialized. *)
  let emit_actions s =
    for i = 0 to n - 1 do
      let code = Bytes.unsafe_get t.intent i in
      if code = down then emit (Trace.Down { slot = s; node = i })
      else if code = jammed_listen || code = jammed_broadcast then
        emit (Trace.Jam { slot = s; node = i; channel = t.tuned.(i) })
      else if code = listen || code = broadcast then
        emit
          (Trace.Decide
             {
               slot = s;
               node = i;
               channel = t.tuned.(i);
               label = t.label.(i);
               tx = code = broadcast;
             })
    done
  in
  let emit_outcomes s =
    for j = 0 to t.active_len - 1 do
      let channel = t.active.(j) in
      let winner = t.winner.(channel) in
      if winner >= 0 then
        emit (Trace.Win { slot = s; channel; winner; contenders = t.count.(channel) })
    done;
    for i = 0 to n - 1 do
      if Bytes.unsafe_get t.intent i = listen then begin
        let channel = t.tuned.(i) in
        if delivered t channel then
          emit
            (Trace.Deliver
               { slot = s; channel; sender = t.winner.(channel); receiver = i })
        else emit (Trace.Silent { slot = s; node = i; channel })
      end
    done
  in
  let loop exec =
    let sub = ref [||] in  (* shards x num_channels per-shard counts (dense) *)
    let bcast_partial = Array.make shards 0 in
    let jam_partial = Array.make shards 0 in
    let deliver_partial = Array.make shards 0 in
    let run_shards body =
      match exec with
      | Some p when shards > 1 -> Pool.parallel_for ~chunk:1 p ~n:shards body
      | _ ->
          for s = 0 to shards - 1 do
            body s
          done
    in
    while (not !stopped) && !slot < max_slots do
      let s = !slot in
      let assignment = Dynamic.at availability s in
      let c = Assignment.channels_per_node assignment in
      let cn = Assignment.num_channels assignment in
      ensure_channels t cn;
      let dense = cn <= dense_channel_limit in
      let stride = t.num_channels in
      if dense && Array.length !sub < shards * stride then
        sub := Array.make (shards * stride) 0;
      let subs = !sub in
      (* Reset only the channels touched last slot (O(active)). *)
      for j = 0 to t.active_len - 1 do
        t.count.(t.active.(j)) <- 0
      done;
      t.active_len <- 0;
      (* Phase 1: fault marking, protocol decide, label translation,
         jamming. A [parallel] protocol fuses all three into one pass per
         shard, each confined to its node range and its private [subs]
         row; a sequential protocol (one whose callbacks do not honor the
         sharding contract) gets a single full-range [decide] call between
         two parallel passes — the shared rng, if the protocol draws from
         it, is then consumed in ascending node order exactly as the
         specification consumes it. *)
      let mark sh =
        let lo = shard_lo ~n ~shards sh and hi = shard_hi ~n ~shards sh in
        if dense then Array.fill subs (sh * stride) cn 0;
        for i = lo to hi - 1 do
          Bytes.unsafe_set t.intent i
            (if faults_down ~slot:s ~node:i then down else idle)
        done
      in
      let translate sh =
        let lo = shard_lo ~n ~shards sh and hi = shard_hi ~n ~shards sh in
        let jams = ref 0 and bcasts = ref 0 in
        for i = lo to hi - 1 do
          let code = Bytes.unsafe_get t.intent i in
          if code = listen || code = broadcast then begin
            let label = t.label.(i) in
            if label < 0 || label >= c then bad_label i label c;
            let channel = Assignment.global_of_local assignment ~node:i ~label in
            t.tuned.(i) <- channel;
            bump (fun m -> m.Metrics.awake_slots) i;
            if jammer_jams ~slot:s ~node:i ~channel then begin
              Bytes.unsafe_set t.intent i
                (if code = broadcast then jammed_broadcast else jammed_listen);
              incr jams;
              bump (fun m -> m.Metrics.jammed) i
            end
            else if code = broadcast then begin
              incr bcasts;
              bump (fun m -> m.Metrics.transmissions) i;
              if dense then begin
                let k = (sh * stride) + channel in
                subs.(k) <- subs.(k) + 1
              end
            end
          end
        done;
        jam_partial.(sh) <- !jams;
        bcast_partial.(sh) <- !bcasts
      in
      if protocol.parallel then
        run_shards (fun sh ->
            mark sh;
            protocol.decide t ~slot:s ~lo:(shard_lo ~n ~shards sh)
              ~hi:(shard_hi ~n ~shards sh);
            translate sh)
      else begin
        run_shards mark;
        protocol.decide t ~slot:s ~lo:0 ~hi:n;
        run_shards translate
      end;
      if traced then emit_actions s;
      (* Phase 2 (sequential): merge occupancy into [count] and build the
         active worklist in ascending channel order. *)
      if dense then
        for channel = 0 to cn - 1 do
          let total = ref 0 in
          for sh = 0 to shards - 1 do
            total := !total + subs.((sh * stride) + channel)
          done;
          if !total > 0 then begin
            t.count.(channel) <- !total;
            t.active.(t.active_len) <- channel;
            t.active_len <- t.active_len + 1
          end
        done
      else begin
        for i = 0 to n - 1 do
          if Bytes.unsafe_get t.intent i = broadcast then begin
            let channel = t.tuned.(i) in
            if t.count.(channel) = 0 then begin
              t.active.(t.active_len) <- channel;
              t.active_len <- t.active_len + 1
            end;
            t.count.(channel) <- t.count.(channel) + 1
          end
        done;
        sort_prefix t.active t.active_len
      end;
      (* Phase 3 (sequential): resolve every active channel, in ascending
         channel order — the only part of the slot that must stay
         sequential for determinism, since resolvers draw from the shared
         stream. A success is stored as the descending-order countdown
         [need = count - widx]; a failure as [owner = -1] and
         [winner = -1], whose countdown of zero is never hit again. *)
      for j = 0 to t.active_len - 1 do
        let channel = t.active.(j) in
        let m = t.count.(channel) in
        if m > 1 then
          counters.Trace.Counters.contended <-
            counters.Trace.Counters.contended + 1;
        let widx = resolve ~slot:s ~channel ~contenders:m in
        if widx >= m then
          invalid_arg
            (Printf.sprintf "Soa.run: resolver chose contender %d of %d" widx m);
        if widx >= 0 then begin
          counters.Trace.Counters.wins <- counters.Trace.Counters.wins + 1;
          t.need.(channel) <- m - widx;
          t.owner.(channel) <- 0
        end
        else begin
          t.need.(channel) <- 0;
          t.owner.(channel) <- -1;
          t.winner.(channel) <- -1
        end
      done;
      (* Phase 4: materialize winners and account listener deliveries. In
         dense mode a prefix walk over the per-shard subcounts localizes
         each channel's countdown to the shard that contains its winner, so
         the node scan parallelizes; in sparse mode one sequential scan
         runs the countdowns globally. *)
      if dense then begin
        for j = 0 to t.active_len - 1 do
          let channel = t.active.(j) in
          if t.owner.(channel) >= 0 then begin
            let target = ref t.need.(channel) in
            let sh = ref 0 in
            while !target > subs.((!sh * stride) + channel) do
              target := !target - subs.((!sh * stride) + channel);
              incr sh
            done;
            t.owner.(channel) <- !sh;
            t.need.(channel) <- !target
          end
        done;
        run_shards (fun sh ->
            let lo = shard_lo ~n ~shards sh and hi = shard_hi ~n ~shards sh in
            let deliveries = ref 0 in
            for i = lo to hi - 1 do
              let code = Bytes.unsafe_get t.intent i in
              if code = broadcast then begin
                let channel = t.tuned.(i) in
                if t.owner.(channel) = sh then begin
                  let r = t.need.(channel) - 1 in
                  t.need.(channel) <- r;
                  if r = 0 then begin
                    t.winner.(channel) <- i;
                    t.winner_msg.(channel) <- t.msg.(i)
                  end
                end
              end
              else if code = listen then begin
                let channel = t.tuned.(i) in
                if t.count.(channel) > 0 && t.owner.(channel) >= 0 then begin
                  incr deliveries;
                  bump (fun m -> m.Metrics.receptions) i
                end
              end
            done;
            deliver_partial.(sh) <- !deliveries)
      end
      else begin
        let deliveries = ref 0 in
        for i = 0 to n - 1 do
          let code = Bytes.unsafe_get t.intent i in
          if code = broadcast then begin
            let channel = t.tuned.(i) in
            let r = t.need.(channel) - 1 in
            t.need.(channel) <- r;
            if r = 0 then begin
              t.winner.(channel) <- i;
              t.winner_msg.(channel) <- t.msg.(i)
            end
          end
          else if code = listen then begin
            let channel = t.tuned.(i) in
            if t.count.(channel) > 0 && t.owner.(channel) >= 0 then begin
              incr deliveries;
              bump (fun m -> m.Metrics.receptions) i
            end
          end
        done;
        Array.fill deliver_partial 0 shards 0;
        deliver_partial.(0) <- !deliveries
      end;
      if traced then emit_outcomes s;
      (* Phase 5: protocol feedback, in ascending node id — parallel over
         the node ranges, or one sequential full-range call for a
         sequential protocol. *)
      if protocol.parallel then
        run_shards (fun sh ->
            protocol.feedback t ~slot:s ~lo:(shard_lo ~n ~shards sh)
              ~hi:(shard_hi ~n ~shards sh))
      else protocol.feedback t ~slot:s ~lo:0 ~hi:n;
      let bcasts = ref 0 and jams = ref 0 and deliveries = ref 0 in
      for sh = 0 to shards - 1 do
        bcasts := !bcasts + bcast_partial.(sh);
        jams := !jams + jam_partial.(sh);
        deliveries := !deliveries + deliver_partial.(sh)
      done;
      counters.Trace.Counters.broadcasts <-
        counters.Trace.Counters.broadcasts + !bcasts;
      counters.Trace.Counters.jammed_actions <-
        counters.Trace.Counters.jammed_actions + !jams;
      counters.Trace.Counters.deliveries <-
        counters.Trace.Counters.deliveries + !deliveries;
      end_slot s
    done
  in
  (if shards = 1 then loop None
   else
     match pool with
     | Some p -> loop (Some p)
     | None -> Pool.with_pool ~jobs:shards (fun p -> loop (Some p)));
  { slots_run = !slot; stopped_early = !stopped; counters }
