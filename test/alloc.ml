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
