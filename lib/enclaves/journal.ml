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

type status = Clean | Damaged of { valid_records : int; valid_bytes : int }

let pp_status fmt = function
  | Clean -> Format.pp_print_string fmt "clean"
  | Damaged { valid_records; valid_bytes } ->
      Format.fprintf fmt "damaged (recovered %d records, %d bytes)"
        valid_records valid_bytes

(* --- record payload encoding --- *)

let encode_payload ~seq record =
  let w = Cursor.Writer.create () in
  Cursor.Writer.u32 w seq;
  (match record with
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
      Cursor.Writer.u32 w next_epoch);
  Cursor.Writer.contents w

let decode_payload payload =
  let r = Cursor.Reader.of_string payload in
  let result =
    let* seq = Cursor.Reader.u32 r in
    let* tag = Cursor.Reader.u8 r in
    let* record =
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
    in
    let* () = Cursor.Reader.expect_end r in
    Ok (seq, record)
  in
  Result.to_option result

let record_equal a b = encode_payload ~seq:0 a = encode_payload ~seq:0 b

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

let state_of_records records = List.fold_left apply_record empty_state records

(* --- the journal proper --- *)

let magic = "EJNL"
let version = 1
let default_mac_key = "enclaves-journal"  (* 16 bytes, public: integrity
                                             only, not secrecy *)

type event = Appended of string | Published of string

module Counter = struct
  let layer = Metrics.layer "journal"
  let eio_retries = Metrics.counter layer "eio_retries"
end

type t = {
  buf : Buffer.t;
  mac : Sym_crypto.Siphash.key;
  compact_every : int;
  disk : Store.Backend.t option;
  file : string;
  counters : Metrics.t;
  mutable st : state;
  mutable nrecords : int;
  mutable next_seq : int;
  mutable since_snapshot : int;
  mutable observer : (event -> unit) option;
  (* Degraded-mode switch: with durability off the in-memory log keeps
     evolving but neither mirror shape touches the backend. Re-arming
     is [set_durable true] followed by [compact], which republishes
     the whole image atomically. *)
  mutable durable : bool;
}

let header () =
  let w = Cursor.Writer.create () in
  Cursor.Writer.raw w magic;
  Cursor.Writer.u8 w version;
  Cursor.Writer.contents w

(* --- disk write-through ---

   The in-memory buffer stays authoritative for reads; every mutation
   is mirrored to the backend before returning. Transient EIO is
   retried a bounded number of times — safe because both mirror shapes
   are idempotent: an append rewrites the same offset, a publish
   restages the whole image. [Backend.Crashed] is never caught: a
   crashed store means the process is gone. *)

let max_eio_retries = 8

let with_retry t f =
  let rec go attempt =
    try f ()
    with Store.Backend.Eio _ when attempt < max_eio_retries ->
      Metrics.incr t.counters Counter.eio_retries;
      go (attempt + 1)
  in
  go 0

(* Full-image publish: stage, fsync, atomic rename. Used whenever the
   on-disk bytes are replaced rather than extended (create,
   compaction). The staging file is removed first so a stale longer
   tmp can never leak a garbage tail past the rename. *)
let disk_publish t =
  match t.disk with
  | Some d when t.durable ->
      let bytes = Buffer.contents t.buf in
      let tmp = t.file ^ ".tmp" in
      with_retry t (fun () -> Store.Backend.remove d ~file:tmp);
      with_retry t (fun () -> Store.Backend.pwrite d ~file:tmp ~off:0 bytes);
      with_retry t (fun () -> Store.Backend.fsync d ~file:tmp);
      with_retry t (fun () -> Store.Backend.rename d ~src:tmp ~dst:t.file)
  | _ -> ()

(* Incremental append: write the new record bytes at their offset and
   fsync. A crash between the two loses at most the record's tail,
   which replay's per-record checksum absorbs. *)
let disk_append t ~off bytes =
  match t.disk with
  | Some d when t.durable ->
      with_retry t (fun () -> Store.Backend.pwrite d ~file:t.file ~off bytes);
      with_retry t (fun () -> Store.Backend.fsync d ~file:t.file)
  | _ -> ()

let create ?(mac_key = default_mac_key) ?(compact_every = 256) ?disk
    ?(file = "journal") () =
  if String.length mac_key <> 16 then
    invalid_arg "Journal.create: mac_key must be 16 bytes";
  if compact_every < 1 then
    invalid_arg "Journal.create: compact_every must be positive";
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header ());
  let t =
    {
      buf;
      mac = Sym_crypto.Siphash.key_of_string mac_key;
      compact_every;
      disk;
      file;
      counters = Metrics.create Counter.layer;
      st = empty_state;
      nrecords = 0;
      next_seq = 0;
      since_snapshot = 0;
      observer = None;
      durable = true;
    }
  in
  disk_publish t;
  t

let set_observer t obs = t.observer <- obs
let set_durable t b = t.durable <- b
let durable t = t.durable
let notify t ev = match t.observer with None -> () | Some f -> f ev

let state t = t.st
let records t = t.nrecords
let contents t = Buffer.contents t.buf
let counters t = t.counters
let file t = t.file

let append_raw t record =
  let payload = encode_payload ~seq:t.next_seq record in
  let w = Cursor.Writer.create () in
  Cursor.Writer.u32 w (String.length payload);
  Cursor.Writer.raw w payload;
  Cursor.Writer.raw w (Sym_crypto.Siphash.hash_to_bytes t.mac payload);
  Buffer.add_string t.buf (Cursor.Writer.contents w);
  t.next_seq <- t.next_seq + 1;
  t.nrecords <- t.nrecords + 1;
  t.st <- apply_record t.st record

let rewrite_as_snapshot t =
  let st = t.st in
  Buffer.clear t.buf;
  Buffer.add_string t.buf (header ());
  t.nrecords <- 0;
  t.next_seq <- 0;
  t.since_snapshot <- 0;
  append_raw t (Snapshot st);
  disk_publish t;
  notify t (Published (Buffer.contents t.buf))

let compact t = rewrite_as_snapshot t

let append t record =
  let off = Buffer.length t.buf in
  append_raw t record;
  t.since_snapshot <- t.since_snapshot + 1;
  if t.since_snapshot > t.compact_every then rewrite_as_snapshot t
  else begin
    let chunk = Buffer.sub t.buf off (Buffer.length t.buf - off) in
    disk_append t ~off chunk;
    notify t (Appended chunk)
  end

(* --- replay: total on arbitrary bytes --- *)

let replay ?(mac_key = default_mac_key) bytes =
  if String.length mac_key <> 16 then
    invalid_arg "Journal.replay: mac_key must be 16 bytes";
  let mac = Sym_crypto.Siphash.key_of_string mac_key in
  let len = String.length bytes in
  let hlen = String.length magic + 1 in
  let bad_header =
    len < hlen
    || String.sub bytes 0 (String.length magic) <> magic
    || Char.code bytes.[String.length magic] <> version
  in
  if bad_header then ([], Damaged { valid_records = 0; valid_bytes = 0 })
  else begin
    let records = ref [] in
    let pos = ref hlen in
    let valid_bytes = ref hlen in
    let seq = ref 0 in
    let stop = ref false in
    while not !stop do
      if len - !pos < 4 then stop := true
        (* trailing fragment shorter than a length word *)
      else begin
        let rlen =
          let b i = Char.code bytes.[!pos + i] in
          (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
        in
        if rlen < 0 || rlen > len - !pos - 12 then stop := true
        else begin
          let payload = String.sub bytes (!pos + 4) rlen in
          let sum = String.sub bytes (!pos + 4 + rlen) 8 in
          if not (String.equal sum (Sym_crypto.Siphash.hash_to_bytes mac payload))
          then stop := true
          else
            match decode_payload payload with
            | Some (s, record) when s = !seq ->
                records := record :: !records;
                incr seq;
                pos := !pos + 4 + rlen + 8;
                valid_bytes := !pos
            | Some _ | None -> stop := true
        end
      end
    done;
    let recs = List.rev !records in
    if !valid_bytes = len then (recs, Clean)
    else (recs, Damaged { valid_records = List.length recs; valid_bytes = !valid_bytes })
  end

let of_state ?(mac_key = default_mac_key) ?compact_every ?disk ?file st =
  let t = create ~mac_key ?compact_every ?disk ?file () in
  t.st <- st;
  rewrite_as_snapshot t;
  t

let recover ?(mac_key = default_mac_key) ?compact_every ?disk ?file bytes =
  let records, status = replay ~mac_key bytes in
  let st = state_of_records records in
  (of_state ~mac_key ?compact_every ?disk ?file st, st, status)

let load ?mac_key ?compact_every ?(file = "journal") ~disk () =
  let bytes = Option.value ~default:"" (Store.Backend.read disk ~file) in
  recover ?mac_key ?compact_every ~disk ~file bytes
