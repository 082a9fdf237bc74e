module Rng = Crn_prng.Rng
module Dynamic = Crn_channel.Dynamic
module Action = Crn_radio.Action
module Trace = Crn_radio.Trace

type msg =
  | Beacon
  | Transfer of { target : int; ds : float; dw : float }

type result = {
  slots_run : int;
  total_arrivals : int;
  injected : int;
  transfers : int;
  lost_mass : float;
  lost_weight : float;
  max_drift : float;
  estimate_error : float;
  converged : int;
  completed_at : int option;
  latencies : float array;
}

include Crn_radio.Machine

type machine = (msg, result) t

let machine ?(tolerance = 0.02) ?values ?trace ~arrivals ~availability ~rng () =
  let n = Dynamic.num_nodes availability in
  let c = Dynamic.channels_per_node availability in
  if not (tolerance > 0.0) then
    invalid_arg "Push_sum.machine: tolerance must be > 0";
  let values =
    match values with
    | None -> Array.init n float_of_int
    | Some vs ->
        if Array.length vs <> n then
          invalid_arg "Push_sum.machine: values length must equal n";
        vs
  in
  let total = Array.length arrivals in
  let queues = Arrivals.by_origin ~n arrivals in
  let streams = Rng.Arena.split_n rng n in
  let record ev = match trace with Some tr -> Trace.record tr ev | None -> () in
  let s = Array.copy values in
  let w = Array.make n 1.0 in
  let expected = ref (Array.fold_left ( +. ) 0.0 values) in
  (* Per-slot transfer accounting. A debit (the engine's [Won] at a
     sender) and the matching fold (the [Heard]/[Lost] at the target) are
     two views of the same delivery, carrying bitwise-identical [ds]/[dw];
     a debit whose fold never arrives (target down, jammed, or absent this
     slot) is real lost mass, swept into the ledger at slot end rather
     than silently vanishing. Debits are matched to folds pairwise — never
     by comparing per-slot float totals, whose rounding would depend on
     feedback iteration order. The ledger is therefore exact and identical
     on every backend, whatever order feedback arrives in. *)
  let debit_ds = Array.make n 0.0 in
  let debit_dw = Array.make n 0.0 in
  let debit_live = Array.make n false in
  let folded_from = Array.make n false in
  let lost_s = ref 0.0 and lost_w = ref 0.0 in
  let max_drift = ref 0.0 in
  let transfers = ref 0 in
  let injected = ref 0 in
  let last_inject = ref 0 in
  let cur_slot = ref (-1) in
  (* [settled_at.(v)] is the slot node [v]'s estimate last entered the
     tolerance band around the circulating mean; [-1] while outside it. *)
  let settled_at = Array.make n (-1) in
  let heard_beacon : (int * int) option array = Array.make n None in
  let beaconed_label : int option array = Array.make n None in
  let last_label = Array.make n 0 in
  let pending : (int * float * float) option array = Array.make n None in
  let circulating_mean () =
    let mass = !expected -. !lost_s in
    let weight = float_of_int n -. !lost_w in
    if weight <= 0.0 then nan else mass /. weight
  in
  let rel_dev v mean =
    if w.(v) <= 0.0 then infinity
    else
      let est = s.(v) /. w.(v) in
      Float.abs (est -. mean) /. Float.max (Float.abs mean) 1e-9
  in
  (* [from] is the winning sender whose debit this fold matches; the fold
     can arrive before or after the sender's own [Won], so matching is a
     flag resolved at slot end, not an eager cancellation. *)
  let fold_transfer ~node ~from ~ds ~dw =
    s.(node) <- s.(node) +. ds;
    w.(node) <- w.(node) +. dw;
    folded_from.(from) <- true
  in
  let decide ~node:v ~slot:t =
    cur_slot := max !cur_slot t;
    let rec drain () =
      match queues.(v) with
      | a :: rest when a.Arrivals.slot <= t ->
          queues.(v) <- rest;
          s.(v) <- s.(v) +. 1.0;
          expected := !expected +. 1.0;
          incr injected;
          last_inject := t;
          record (Trace.Injected { slot = t; rumor = a.Arrivals.rumor; node = v });
          drain ()
      | _ -> ()
    in
    drain ();
    pending.(v) <- None;
    if t land 1 = 0 then begin
      (* Beacon slot: advertise or scan. *)
      heard_beacon.(v) <- None;
      beaconed_label.(v) <- None;
      let label = Rng.Arena.int streams v c in
      last_label.(v) <- label;
      if Rng.Arena.bool streams v then begin
        beaconed_label.(v) <- Some label;
        Action.broadcast ~label Beacon
      end
      else Action.listen ~label
    end
    else begin
      (* Transfer slot: answer the beacon heard last slot, or wait for an
         answer where we beaconed. *)
      match heard_beacon.(v) with
      | Some (target, label) when target <> v ->
          heard_beacon.(v) <- None;
          let ds = s.(v) /. 2.0 and dw = w.(v) /. 2.0 in
          pending.(v) <- Some (target, ds, dw);
          last_label.(v) <- label;
          Action.broadcast ~label (Transfer { target; ds; dw })
      | _ -> (
          heard_beacon.(v) <- None;
          match beaconed_label.(v) with
          | Some label ->
              last_label.(v) <- label;
              Action.listen ~label
          | None ->
              let label = Rng.Arena.int streams v c in
              last_label.(v) <- label;
              Action.listen ~label)
    end
  in
  let feedback ~node:v ~slot:_ fb =
    match fb with
    | Action.Heard { sender; msg = Beacon } ->
        heard_beacon.(v) <- Some (sender, last_label.(v))
    | Action.Heard { sender; msg = Transfer { target; ds; dw } } ->
        if target = v then fold_transfer ~node:v ~from:sender ~ds ~dw
    | Action.Lost { winner; msg = Beacon } ->
        (* A losing beaconer still receives the winner's beacon (§2) and
           can court it next slot. *)
        heard_beacon.(v) <- Some (winner, last_label.(v))
    | Action.Lost { winner; msg = Transfer { target; ds; dw } } ->
        pending.(v) <- None;
        if target = v then fold_transfer ~node:v ~from:winner ~ds ~dw
    | Action.Won -> (
        match pending.(v) with
        | Some (_, ds, dw) ->
            (* Our transfer is the one the engine delivered: commit the
               debit. The target's fold is driven by the same delivery. *)
            s.(v) <- s.(v) -. ds;
            w.(v) <- w.(v) -. dw;
            debit_ds.(v) <- ds;
            debit_dw.(v) <- dw;
            debit_live.(v) <- true;
            incr transfers;
            pending.(v) <- None
        | None -> ())
    | Action.Silence -> ()
    | Action.Jammed | Action.No_winner ->
        (* The transfer never left this node (absorbed by the jammer, or
           the contention session burned its whole window): nothing was
           delivered, so nothing is debited. *)
        pending.(v) <- None
  in
  (* Runs once after every slot's feedback (the driver's stop hook): sweep
     unfolded in-flight mass into the ledger, sample the conservation
     drift, and re-evaluate the convergence band. *)
  let finished () =
    for v = 0 to n - 1 do
      if debit_live.(v) then begin
        if not folded_from.(v) then begin
          lost_s := !lost_s +. debit_ds.(v);
          lost_w := !lost_w +. debit_dw.(v)
        end;
        debit_live.(v) <- false
      end;
      folded_from.(v) <- false
    done;
    let mass = ref !lost_s in
    Array.iter (fun x -> mass := !mass +. x) s;
    max_drift := Float.max !max_drift (Float.abs (!mass -. !expected));
    let mean = circulating_mean () in
    let all_settled = ref true in
    for v = 0 to n - 1 do
      if rel_dev v mean <= tolerance then begin
        if settled_at.(v) < 0 then settled_at.(v) <- max 0 !cur_slot
      end
      else begin
        settled_at.(v) <- -1;
        all_settled := false
      end
    done;
    !injected = total && !all_settled
  in
  let snapshot ~slots_run =
    let mean = circulating_mean () in
    let estimate_error =
      Array.to_list (Array.init n (fun v -> rel_dev v mean))
      |> List.fold_left Float.max 0.0
    in
    let settled = List.filter (fun v -> settled_at.(v) >= 0) (List.init n Fun.id) in
    let latencies =
      settled
      |> List.map (fun v -> float_of_int (max 1 (settled_at.(v) - !last_inject + 1)))
      |> Array.of_list
    in
    let converged = List.length settled in
    {
      slots_run;
      total_arrivals = total;
      injected = !injected;
      transfers = !transfers;
      lost_mass = !lost_s;
      lost_weight = !lost_w;
      max_drift = !max_drift;
      estimate_error;
      converged;
      completed_at =
        (if !injected = total && converged = n then Some slots_run else None);
      latencies;
    }
  in
  { decide; feedback; finished; snapshot }
