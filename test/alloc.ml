(* Minor words [f] allocates, net of the float box [Gc.minor_words] itself
   returns. Only meaningful in native code: bytecode boxes every [int64]. *)
let minor_words f =
  let base =
    let w0 = Gc.minor_words () in
    Gc.minor_words () -. w0
  in
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0 -. base

(* Words [f] allocates on either heap: blocks too large for the minor heap
   go straight to the major one, which [minor_words] does not see. A full
   major collection first settles the counters of earlier allocations. *)
let words f =
  Gc.full_major ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 -. (promoted1 -. promoted0) +. (major1 -. major0)
