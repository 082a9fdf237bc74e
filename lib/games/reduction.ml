module Rng = Crn_prng.Rng

type simulated_algorithm = {
  alg_name : string;
  source_choice : slot:int -> int;
  nonsource_choices : slot:int -> int array;
}

let cogcast_algorithm rng ~n ~c =
  if n < 2 then invalid_arg "Reduction.cogcast_algorithm: need n >= 2";
  let source_rng = Rng.split rng in
  let streams = Rng.Arena.split_n rng (n - 1) in
  {
    alg_name = "cogcast";
    source_choice = (fun ~slot:_ -> Rng.int source_rng c);
    nonsource_choices =
      (fun ~slot:_ -> Array.init (n - 1) (fun v -> Rng.Arena.int streams v c));
  }

let player_of_algorithm ~c alg =
  let tried = Hashtbl.create 64 in
  let queue = Queue.create () in
  let sim_slots = ref 0 in
  let advance () =
    let slot = !sim_slots in
    incr sim_slots;
    let a = alg.source_choice ~slot in
    let bs = alg.nonsource_choices ~slot in
    (* Distinct fresh proposals only: duplicates within a slot collapse, and
       pairs proposed in earlier slots are skipped. *)
    let seen_this_slot = Hashtbl.create 8 in
    Array.iter
      (fun b ->
        if not (Hashtbl.mem seen_this_slot b) then begin
          Hashtbl.replace seen_this_slot b ();
          if not (Hashtbl.mem tried (a, b)) then begin
            Hashtbl.replace tried (a, b) ();
            Queue.add (a, b) queue
          end
        end)
      bs
  in
  let propose ~round:_ =
    let guard = ref 0 in
    while Queue.is_empty queue && !guard < 1_000_000 do
      (* A slot can yield no fresh proposal once its pairs were already
         tried; keep simulating. If every one of the c² edges has been
         proposed the game must already be over, so the guard is only a
         belt-and-braces bound. *)
      if Hashtbl.length tried >= c * c then begin
        Queue.add (0, 0) queue;
        guard := max_int
      end
      else begin
        advance ();
        incr guard
      end
    done;
    if Queue.is_empty queue then (0, 0) else Queue.pop queue
  in
  let player =
    {
      Hitting_game.player_name = "reduction:" ^ alg.alg_name;
      propose;
      inform = (fun ~round:_ ~hit:_ -> ());
    }
  in
  (player, fun () -> !sim_slots)
