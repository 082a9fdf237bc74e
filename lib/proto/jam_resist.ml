module Dynamic = Crn_channel.Dynamic
module Assignment = Crn_channel.Assignment
module Jammer = Crn_radio.Jammer
module Jamming_reduction = Crn_radio.Jamming_reduction
module Trace = Crn_radio.Trace

let prefix = "jam_resist:"

let wrapped_name inner = prefix ^ inner

let precondition proto ~budget ~num_channels =
  let inner = Protocol.name proto in
  let name = wrapped_name inner in
  if budget = 0 then Ok ()
  else if 2 * budget >= num_channels then
    Error
      (Printf.sprintf "%s: jammer budget %d must be below C/2 = %d/2 (Theorem 18)"
         name budget num_channels)
  else if not (Protocol.capabilities proto).Protocol.dynamic then
    (* The reduction hands the inner protocol a per-slot availability, so
       Theorem 18 covers only protocols that solve broadcast on a dynamic
       spectrum. *)
    Error
      (Printf.sprintf
         "%s: %s does not support a dynamic spectrum, which the Theorem 18 \
          transform needs under a jammer budget %d > 0"
         name inner budget)
  else Ok ()

let wrap proto =
  let inner = Protocol.name proto in
  let name = wrapped_name inner in
  let exec (env : Protocol.env) =
    let budget =
      match env.Protocol.jammer with Some j -> Jammer.budget j | None -> 0
    in
    if budget = 0 then
      (* Nothing to resist: run the inner protocol in the very same
         environment (a budget-0 jammer absorbs nothing), so the wrapped
         run is byte-identical to the plain one — the transformer is the
         identity off the adversarial path. *)
      let s = Protocol.run proto env in
      { s with Protocol.protocol = name }
    else begin
      let jammer = Option.get env.Protocol.jammer in
      let n = Dynamic.num_nodes env.Protocol.availability in
      let num_channels =
        Assignment.num_channels (Dynamic.at env.Protocol.availability 0)
      in
      Result.iter_error invalid_arg (precondition proto ~budget ~num_channels);
      (match env.Protocol.trace with
      | Some tr ->
          Trace.record tr
            (Trace.Adversary { name = Jammer.name jammer; budget })
      | None -> ());
      (* The Theorem 18 reduction: the node's sensed, per-slot unjammed
         channel set becomes its availability — a legal dynamic CRN with
         >= C - t channels per node and pairwise overlap >= C - 2t — and
         the protocol runs unmodified on it. The jammer stays in the
         environment: whatever it jams is, by construction, a channel the
         wrapped protocol never tunes to, so keeping it is an honest
         no-op rather than an assumption. *)
      let availability =
        Jamming_reduction.sensed_availability ~num_nodes:n ~num_channels
          ~jammer ()
      in
      let k = Jamming_reduction.overlap_guarantee ~num_channels ~budget in
      let s =
        Protocol.run proto { env with Protocol.availability; k }
      in
      { s with Protocol.protocol = name }
    end
  in
  (* The wrap replaces the availability with the sensed spectrum, so it
     cannot also honor a caller's per-slot reassignment. *)
  let capabilities = { (Protocol.capabilities proto) with Protocol.dynamic = false } in
  Protocol.of_run ~name ~capabilities
    ~synopsis:
      (Printf.sprintf "Theorem 18 wrapper: %s on the sensed unjammed spectrum"
         inner)
    exec
