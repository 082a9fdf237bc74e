module Assignment = Crn_channel.Assignment
module Action = Crn_radio.Action

type schedule = { schedule_name : string; channel_at : slot:int -> int }

let channel_of_schedule assignment ~node schedule ~slot =
  let channel = schedule.channel_at ~slot in
  match Assignment.local_of_global assignment ~node ~channel with
  | Some _ -> channel
  | None ->
      invalid_arg
        (Printf.sprintf "%s: node %d left its channel set at slot %d (channel %d)"
           schedule.schedule_name node slot channel)

let is_prime n =
  if n < 2 then false
  else begin
    let rec loop d = d * d > n || (n mod d <> 0 && loop (d + 1)) in
    loop 2
  end

let smallest_prime_geq n =
  let rec loop v = if is_prime v then v else loop (v + 1) in
  loop (max 2 n)

(* Own-channel lookup table for a node, in increasing global id. *)
let own_channels assignment ~node =
  let set = Assignment.channel_set assignment ~node in
  Crn_channel.Bitset.to_array set

let modular_clock assignment ~node ~rate =
  let own = own_channels assignment ~node in
  let c = Array.length own in
  let p = smallest_prime_geq c in
  if rate < 1 || rate >= p then invalid_arg "Deterministic.modular_clock: rate out of [1, p)";
  {
    schedule_name = Printf.sprintf "modular-clock(r=%d)" rate;
    channel_at =
      (fun ~slot ->
        let idx = ((slot * rate) + node) mod p in
        own.(if idx < c then idx else idx mod c));
  }

let jump_stay assignment ~node =
  let own = own_channels assignment ~node in
  let c = Array.length own in
  let big_c = Assignment.num_channels assignment in
  let p = smallest_prime_geq big_c in
  (* Fold a virtual channel in [0, P) into the node's own set: use it
     directly if owned, otherwise map through the node's set. *)
  let fold x =
    if x < big_c then
      match Assignment.local_of_global assignment ~node ~channel:x with
      | Some _ -> x
      | None -> own.(x mod c)
    else own.(x mod c)
  in
  let round_len = 3 * p in
  {
    schedule_name = "jump-stay";
    channel_at =
      (fun ~slot ->
        let m = slot / round_len in
        let t = slot mod round_len in
        (* Per-round start and step; the step cycles over [1, p-1] with the
           node id as phase so distinct nodes use distinct steps most of the
           time, and the start drifts every round to break symmetry. *)
        let r = 1 + ((node + m) mod (p - 1)) in
        let i = (node + (m * m)) mod p in
        if t < 2 * p then fold ((i + (t * r)) mod p) else fold (r mod p));
  }

let generated_orthogonal ?(phase = 0) assignment ~node =
  let own = own_channels assignment ~node in
  let c = Array.length own in
  (* One canonical sequence per channel set (identity permutation over the
     sorted set): the GOS guarantee is that the sequence meets *itself*
     under any relative time shift within one period, which models the
     asynchronous-start setting of DaSilva & Guerreiro. [phase] emulates
     that shift. *)
  let period = c * (c + 1) in
  {
    schedule_name = "generated-orthogonal";
    channel_at =
      (fun ~slot ->
        let t = (slot + phase) mod period in
        let block = t / (c + 1) in
        let pos = t mod (c + 1) in
        if pos = 0 then own.(block) else own.(pos - 1));
  }

let pair_rendezvous assignment ~u ~v ~max_slots =
  ignore assignment;
  let rec loop slot =
    if slot > max_slots then None
    else if u.channel_at ~slot:(slot - 1) = v.channel_at ~slot:(slot - 1) then Some slot
    else loop (slot + 1)
  in
  loop 1

type msg = Payload

type broadcast_result = {
  completed_at : int option;
  slots_run : int;
  informed_count : int;
}

include Crn_radio.Machine

type machine = (msg, broadcast_result) t

let machine ~make_schedule ~source ~assignment =
  let n = Assignment.num_nodes assignment in
  if source < 0 || source >= n then
    invalid_arg "Deterministic.machine: source out of range";
  let schedules = Array.init n (fun node -> make_schedule assignment ~node) in
  let informed = Array.make n false in
  informed.(source) <- true;
  (* [Atomic] so the machine is shard-safe on the SoA backend: the
     counter is bumped at most once per node, so the total is
     shard-count independent. *)
  let informed_count = Atomic.make 1 in
  let decide ~node:v ~slot =
    let channel = schedules.(v).channel_at ~slot in
    let label =
      match Assignment.local_of_global assignment ~node:v ~channel with
      | Some label -> label
      | None ->
          invalid_arg
            (Printf.sprintf "Deterministic.machine: schedule %s left node %d's set"
               schedules.(v).schedule_name v)
    in
    if informed.(v) then Action.broadcast ~label Payload else Action.listen ~label
  in
  let feedback ~node:v ~slot:_ = function
    | Action.Heard { msg = Payload; _ } ->
        if not informed.(v) then begin
          informed.(v) <- true;
          ignore (Atomic.fetch_and_add informed_count 1)
        end
    | Action.Won | Action.Lost _ | Action.Silence | Action.Jammed
    | Action.No_winner ->
        ()
  in
  let finished () = Atomic.get informed_count = n in
  let snapshot ~slots_run =
    {
      completed_at = (if Atomic.get informed_count = n then Some slots_run else None);
      slots_run;
      informed_count = Atomic.get informed_count;
    }
  in
  { decide; feedback; finished; snapshot }
