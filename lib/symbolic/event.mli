(** Events of the symbolic model: protocol messages and Oops events.

    A message carries a label, an {e apparent} sender, an intended
    recipient and a content field; none of the header is authenticated.
    [Oops f] models the compromise of [f] (typically an expired session
    key): its content becomes part of the public trace, hence of every
    agent's knowledge — exactly the paper's treatment (§4, "Oops(X) is
    treated like an ordinary message whose content is the field X"). *)

type label =
  (* Improved protocol (§3.2). *)
  | AuthInitReq
  | AuthKeyDist
  | AuthAckKey
  | AdminMsg
  | Ack
  | ReqClose
  (* Legacy protocol (§2.2), used by {!Legacy_model}. *)
  | LReqOpen
  | LAckOpen
  | LConnDenied
  | LAuth1
  | LAuth2
  | LAuth3
  | LNewKey
  | LMemRemoved
  | LReqClose

type t =
  | Msg of {
      label : label;
      sender : Field.agent;
      recipient : Field.agent;
      content : Field.t;
    }
  | Oops of Field.t

val compare : t -> t -> int
val equal : t -> t -> bool
val pp_label : Format.formatter -> label -> unit
val pp : Format.formatter -> t -> unit

val content : t -> Field.t
(** The content field ([trace] with underline in the paper). *)

module Set : Stdlib.Set.S with type elt = t

val hash_set : Set.t -> int
(** A hash of a trace consistent with [Set.equal]. *)

val contents : Set.t -> Field.Set.t
(** All contents of a trace — the paper's [trace(q)] underlined. *)

val events_with : Set.t -> label -> Field.agent -> Field.t list
(** Contents of the trace's messages with this label addressed to this
    recipient, whatever their apparent (unauthenticated) sender. *)
