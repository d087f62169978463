open Byteskit

let ( let* ) = Cursor.( let* )

type record =
  | Session_established of { member : Types.agent; key : string }
  | Session_closed of { member : Types.agent }
  | Epoch_bump of { key : string; epoch : int }
  | Snapshot of state

and state = {
  sessions : (Types.agent * string) list;
  group_key : (string * int) option;
  next_epoch : int;
}

let empty_state = { sessions = []; group_key = None; next_epoch = 1 }

let pp_record fmt = function
  | Session_established { member; _ } ->
      Format.fprintf fmt "SessionEstablished(%s)" member
  | Session_closed { member } -> Format.fprintf fmt "SessionClosed(%s)" member
  | Epoch_bump { epoch; _ } -> Format.fprintf fmt "EpochBump(%d)" epoch
  | Snapshot { sessions; group_key; next_epoch } ->
      Format.fprintf fmt "Snapshot(%d sessions, epoch=%s, next=%d)"
        (List.length sessions)
        (match group_key with
        | Some (_, e) -> string_of_int e
        | None -> "none")
        next_epoch

type status = Store.Log.status =
  | Clean
  | Damaged of { valid_records : int; valid_bytes : int }

let pp_status = Store.Log.pp_status

(* --- record encoding --- *)

let encode w = function
  | Session_established { member; key } ->
      Cursor.Writer.u8 w 1;
      Cursor.Writer.bytes w member;
      Cursor.Writer.bytes w key
  | Session_closed { member } ->
      Cursor.Writer.u8 w 2;
      Cursor.Writer.bytes w member
  | Epoch_bump { key; epoch } ->
      Cursor.Writer.u8 w 3;
      Cursor.Writer.bytes w key;
      Cursor.Writer.u32 w epoch
  | Snapshot { sessions; group_key; next_epoch } ->
      Cursor.Writer.u8 w 4;
      Cursor.Writer.u32 w (List.length sessions);
      List.iter
        (fun (member, key) ->
          Cursor.Writer.bytes w member;
          Cursor.Writer.bytes w key)
        sessions;
      (match group_key with
      | None -> Cursor.Writer.u8 w 0
      | Some (key, epoch) ->
          Cursor.Writer.u8 w 1;
          Cursor.Writer.bytes w key;
          Cursor.Writer.u32 w epoch);
      Cursor.Writer.u32 w next_epoch

let decode r =
  let* tag = Cursor.Reader.u8 r in
  match tag with
  | 1 ->
      let* member = Cursor.Reader.bytes r in
      let* key = Cursor.Reader.bytes r in
      Ok (Session_established { member; key })
  | 2 ->
      let* member = Cursor.Reader.bytes r in
      Ok (Session_closed { member })
  | 3 ->
      let* key = Cursor.Reader.bytes r in
      let* epoch = Cursor.Reader.u32 r in
      Ok (Epoch_bump { key; epoch })
  | 4 ->
      let* n = Cursor.Reader.u32 r in
      if n > 1_000_000 then Error (`Malformed "snapshot too large")
      else
        let rec sessions acc k =
          if k = 0 then Ok (List.rev acc)
          else
            let* member = Cursor.Reader.bytes r in
            let* key = Cursor.Reader.bytes r in
            sessions ((member, key) :: acc) (k - 1)
        in
        let* sessions = sessions [] n in
        let* flag = Cursor.Reader.u8 r in
        let* group_key =
          match flag with
          | 0 -> Ok None
          | 1 ->
              let* key = Cursor.Reader.bytes r in
              let* epoch = Cursor.Reader.u32 r in
              Ok (Some (key, epoch))
          | _ -> Error (`Malformed "bad group-key flag")
        in
        let* next_epoch = Cursor.Reader.u32 r in
        Ok (Snapshot { sessions; group_key; next_epoch })
  | n -> Error (`Malformed (Printf.sprintf "unknown journal tag %d" n))

(* --- state folding --- *)

let apply_record st = function
  | Snapshot s -> s
  | Session_established { member; key } ->
      {
        st with
        sessions =
          List.sort
            (fun (a, _) (b, _) -> String.compare a b)
            ((member, key) :: List.remove_assoc member st.sessions);
      }
  | Session_closed { member } ->
      { st with sessions = List.remove_assoc member st.sessions }
  | Epoch_bump { key; epoch } ->
      {
        st with
        group_key = Some (key, epoch);
        next_epoch = max st.next_epoch (epoch + 1);
      }

(* --- the journal proper --- *)

include Store.Log.Make (struct
  type nonrec record = record
  type nonrec state = state

  let magic = "EJNL"
  let mac_key = "enclaves-journal" (* public: integrity, not secrecy *)
  let default_file = "journal"
  let default_compact_every = 256
  let empty = empty_state
  let encode = encode
  let decode = decode
  let apply = apply_record
  let snapshot st = Snapshot st
  let resolves _ _ = false
end)

type event = Store.Log.event = Appended of string | Published of string

module Counter = struct
  let layer = Metrics.layer "journal"
  let eio_retries = Metrics.counter layer "eio_retries"
end

let create ?compact_every ?disk ?file () = create ?compact_every ?disk ?file ()

let counters t =
  let m = Metrics.create Counter.layer in
  Metrics.add m Counter.eio_retries (eio_retries t);
  m
