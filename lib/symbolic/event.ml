type label =
  | AuthInitReq
  | AuthKeyDist
  | AuthAckKey
  | AdminMsg
  | Ack
  | ReqClose
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

let compare = Stdlib.compare
let equal a b = compare a b = 0

let pp_label fmt l =
  Format.pp_print_string fmt
    (match l with
    | AuthInitReq -> "AuthInitReq"
    | AuthKeyDist -> "AuthKeyDist"
    | AuthAckKey -> "AuthAckKey"
    | AdminMsg -> "AdminMsg"
    | Ack -> "Ack"
    | ReqClose -> "ReqClose"
    | LReqOpen -> "ReqOpen"
    | LAckOpen -> "AckOpen"
    | LConnDenied -> "ConnectionDenied"
    | LAuth1 -> "LegacyAuth1"
    | LAuth2 -> "LegacyAuth2"
    | LAuth3 -> "LegacyAuth3"
    | LNewKey -> "NewKey"
    | LMemRemoved -> "MemRemoved"
    | LReqClose -> "LegacyReqClose")

let pp fmt = function
  | Msg { label; sender; recipient; content } ->
      Format.fprintf fmt "%a %a->%a: %a" pp_label label Field.pp_agent sender
        Field.pp_agent recipient Field.pp content
  | Oops f -> Format.fprintf fmt "Oops(%a)" Field.pp f

let content = function Msg { content; _ } -> content | Oops f -> f

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

(* Over the elements in their sorted order, so equal sets hash alike
   whatever their tree shape. The limits reach every field of the
   §3.2 message formats. *)
let hash_set s =
  Set.fold (fun e h -> (h * 65599) + Hashtbl.hash_param 20 100 e) s 0

let contents s =
  Set.fold (fun e acc -> Field.Set.add (content e) acc) s Field.Set.empty

(* The apparent sender is deliberately ignored: it is unauthenticated. *)
let events_with trace label recipient =
  Set.fold
    (fun e acc ->
      match e with
      | Msg m when m.label = label && m.recipient = recipient ->
          m.content :: acc
      | Msg _ | Oops _ -> acc)
    trace []
