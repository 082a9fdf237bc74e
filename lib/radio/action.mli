(** Per-slot actions and feedback exchanged between protocol nodes and the
    radio engine, mirroring §2 of the paper.

    In each slot a node tunes to one of its channels — addressed by its
    *local label* — and either broadcasts or listens. After the slot the
    engine reports what happened on that channel: listeners hear the unique
    winner (or silence); broadcasters learn whether they won, and per the
    paper's collision model a losing broadcaster *receives the message that
    was sent*. *)

type 'msg intent =
  | Broadcast of 'msg
  | Listen

type 'msg decision = {
  label : int;  (** Local channel label in [0 .. c-1]. *)
  intent : 'msg intent;
}

type 'msg feedback =
  | Heard of { sender : int; msg : 'msg }
      (** Listener: the slot's winner on this channel. *)
  | Silence  (** Listener: nobody (audible) broadcast on this channel. *)
  | Won  (** Broadcaster: this node's message was the one delivered. *)
  | Lost of { winner : int; msg : 'msg }
      (** Broadcaster: another node won; its message is received. *)
  | Jammed
      (** The channel was jammed at this node (only with a jammer installed):
          nothing was sent or received. *)
  | No_winner
      (** Broadcaster: the contention session on this channel failed to
          isolate a winner within its round cap, so nothing was delivered
          this slot. Only produced by the raw-radio emulation backends —
          the abstract engine always arbitrates a winner. Listeners on the
          channel observe plain {!Silence} (a failed session is physically
          indistinguishable from an idle channel). *)

type 'msg node = {
  id : int;  (** Must equal the node's index in the node array. *)
  decide : slot:int -> 'msg decision;
  feedback : slot:int -> 'msg feedback -> unit;
}
(** One node of a closure-per-node array: asked for a {!decision} each
    slot it is up, told the slot's {!feedback} afterwards. Re-exported as
    {!Engine.node}; the array is a wrapper over the {!Machine.t} shape
    every protocol uses (see {!Soa_adapter.of_nodes}). *)

val listen : label:int -> 'msg decision
val broadcast : label:int -> 'msg -> 'msg decision

val is_broadcast : 'msg decision -> bool

val pp_feedback :
  (Format.formatter -> 'msg -> unit) -> Format.formatter -> 'msg feedback -> unit
