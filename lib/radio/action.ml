type 'msg intent =
  | Broadcast of 'msg
  | Listen

type 'msg decision = { label : int; intent : 'msg intent }

type 'msg feedback =
  | Heard of { sender : int; msg : 'msg }
  | Silence
  | Won
  | Lost of { winner : int; msg : 'msg }
  | Jammed
  | No_winner

type 'msg node = {
  id : int;
  decide : slot:int -> 'msg decision;
  feedback : slot:int -> 'msg feedback -> unit;
}

let listen ~label = { label; intent = Listen }
let broadcast ~label msg = { label; intent = Broadcast msg }

let is_broadcast d = match d.intent with Broadcast _ -> true | Listen -> false

let pp_feedback pp_msg fmt = function
  | Heard { sender; msg } -> Format.fprintf fmt "Heard(%d, %a)" sender pp_msg msg
  | Silence -> Format.fprintf fmt "Silence"
  | Won -> Format.fprintf fmt "Won"
  | Lost { winner; msg } -> Format.fprintf fmt "Lost(%d, %a)" winner pp_msg msg
  | Jammed -> Format.fprintf fmt "Jammed"
  | No_winner -> Format.fprintf fmt "No_winner"
