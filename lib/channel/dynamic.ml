type t = {
  num_nodes : int;
  channels_per_node : int;
  view : int -> Assignment.t;
}

let static a =
  {
    num_nodes = Assignment.num_nodes a;
    channels_per_node = Assignment.channels_per_node a;
    view = (fun _ -> a);
  }

(* The cache is mutex-protected so one availability value can be shared by
   parallel trials (Crn_exec); [f] must be a deterministic function of the
   slot, which every constructor here guarantees. *)
let memoize f =
  let cache = Hashtbl.create 64 in
  let lock = Mutex.create () in
  fun slot ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match Hashtbl.find_opt cache slot with
        | Some a -> a
        | None ->
            let a = f slot in
            Hashtbl.replace cache slot a;
            a)

let of_fun ~num_nodes ~channels_per_node f =
  let view =
    memoize (fun slot ->
        let a = f slot in
        if Assignment.num_nodes a <> num_nodes
           || Assignment.channels_per_node a <> channels_per_node
        then invalid_arg "Dynamic.of_fun: assignment dimensions changed";
        a)
  in
  { num_nodes; channels_per_node; view }

let reshuffled_shared_core ~seed spec =
  Topology.validate_spec spec;
  (* A fixed base seed hashed with the slot index gives an independent,
     deterministic RNG per slot even if slots are queried out of order. *)
  let base_seed = Crn_prng.Rng.bits64 seed in
  let view =
    memoize (fun slot ->
        let slot_seed =
          Crn_prng.Splitmix.mix64 (Int64.logxor base_seed (Int64.of_int slot))
        in
        Topology.shared_core (Crn_prng.Rng.of_int64 slot_seed) spec)
  in
  { num_nodes = spec.Topology.n; channels_per_node = spec.Topology.c; view }

let rotating a =
  let n = Assignment.num_nodes a in
  let c = Assignment.channels_per_node a in
  let num_channels = Assignment.num_channels a in
  (* Slot s uses rotation s mod c, so there are only c distinct tables. *)
  let rotated =
    memoize (fun shift ->
        let table = Array.make (n * c) 0 in
        for node = 0 to n - 1 do
          for label = 0 to c - 1 do
            table.((node * c) + label) <-
              Assignment.global_of_local a ~node ~label:((label + shift) mod c)
          done
        done;
        Assignment.of_table ~num_channels ~channels_per_node:c table)
  in
  { num_nodes = n; channels_per_node = c; view = (fun slot -> rotated (slot mod c)) }

let num_nodes t = t.num_nodes
let channels_per_node t = t.channels_per_node
let at t slot = t.view slot
