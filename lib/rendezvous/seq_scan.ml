module Assignment = Crn_channel.Assignment
module Action = Crn_radio.Action

type msg = Payload

type result = { completed_at : int option; slots_run : int; informed_count : int }

include Crn_radio.Machine

type machine = (msg, result) t

let machine ~source ~assignment =
  let n = Assignment.num_nodes assignment in
  let c = Assignment.channels_per_node assignment in
  let big_c = Assignment.num_channels assignment in
  if source < 0 || source >= n then invalid_arg "Seq_scan.machine: source out of range";
  let informed = Array.make n false in
  informed.(source) <- true;
  (* [Atomic] so the machine is shard-safe on the SoA backend: the
     counter is bumped at most once per node, so the total is
     shard-count independent. *)
  let informed_count = Atomic.make 1 in
  (* Precompute each node's label for every global channel it owns. *)
  let label_of =
    Array.init n (fun v ->
        let table = Hashtbl.create c in
        for label = 0 to c - 1 do
          Hashtbl.replace table (Assignment.global_of_local assignment ~node:v ~label) label
        done;
        table)
  in
  (* A private parking label per node: a channel of its set that the scan is
     not visiting this slot is guaranteed to exist whenever c >= 2; nodes
     park to avoid accidental receptions off-protocol. *)
  let decide ~node:v ~slot =
    let scan_channel = slot mod big_c in
    match Hashtbl.find_opt label_of.(v) scan_channel with
    | Some label ->
        if informed.(v) then Action.broadcast ~label Payload else Action.listen ~label
    | None ->
        (* Park on label 0: broadcasts only ever happen on the scan channel,
           and this node's label 0 is not the scan channel (that case was
           caught above), so parking cannot cause stray receptions. *)
        Action.listen ~label:0
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
