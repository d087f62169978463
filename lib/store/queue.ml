open Byteskit

let ( let* ) = Cursor.( let* )

type entry = { seq : int; epoch : int; payload : string }

type state = { next_seq : int; floor : int; pending : entry list }

let empty_state = { next_seq = 0; floor = 0; pending = [] }

type record =
  | Push of entry
  | Ack of { upto : int }
  | Drop of { seq : int }
  | Snapshot of state

let pp_record fmt = function
  | Push { seq; epoch; payload } ->
      Format.fprintf fmt "Push(seq=%d, epoch=%d, %d bytes)" seq epoch
        (String.length payload)
  | Ack { upto } -> Format.fprintf fmt "Ack(upto=%d)" upto
  | Drop { seq } -> Format.fprintf fmt "Drop(seq=%d)" seq
  | Snapshot { next_seq; floor; pending } ->
      Format.fprintf fmt "Snapshot(next=%d, floor=%d, %d pending)" next_seq
        floor (List.length pending)

type status = Clean | Damaged of { valid_records : int; valid_bytes : int }

let pp_status fmt = function
  | Clean -> Format.pp_print_string fmt "clean"
  | Damaged { valid_records; valid_bytes } ->
      Format.fprintf fmt "damaged (recovered %d records, %d bytes)"
        valid_records valid_bytes

(* --- record payload encoding --- *)

let encode_entry w { seq; epoch; payload } =
  Cursor.Writer.u32 w seq;
  Cursor.Writer.u32 w epoch;
  Cursor.Writer.bytes w payload

let encode_payload ~fseq record =
  let w = Cursor.Writer.create () in
  Cursor.Writer.u32 w fseq;
  (match record with
  | Push e ->
      Cursor.Writer.u8 w 1;
      encode_entry w e
  | Ack { upto } ->
      Cursor.Writer.u8 w 2;
      Cursor.Writer.u32 w upto
  | Drop { seq } ->
      Cursor.Writer.u8 w 3;
      Cursor.Writer.u32 w seq
  | Snapshot { next_seq; floor; pending } ->
      Cursor.Writer.u8 w 4;
      Cursor.Writer.u32 w next_seq;
      Cursor.Writer.u32 w floor;
      Cursor.Writer.u32 w (List.length pending);
      List.iter (encode_entry w) pending);
  Cursor.Writer.contents w

let decode_entry r =
  let* seq = Cursor.Reader.u32 r in
  let* epoch = Cursor.Reader.u32 r in
  let* payload = Cursor.Reader.bytes r in
  Ok { seq; epoch; payload }

let decode_payload payload =
  let r = Cursor.Reader.of_string payload in
  let result =
    let* fseq = Cursor.Reader.u32 r in
    let* tag = Cursor.Reader.u8 r in
    let* record =
      match tag with
      | 1 ->
          let* e = decode_entry r in
          Ok (Push e)
      | 2 ->
          let* upto = Cursor.Reader.u32 r in
          Ok (Ack { upto })
      | 3 ->
          let* seq = Cursor.Reader.u32 r in
          Ok (Drop { seq })
      | 4 ->
          let* next_seq = Cursor.Reader.u32 r in
          let* floor = Cursor.Reader.u32 r in
          let* n = Cursor.Reader.u32 r in
          if n > 1_000_000 then Error (`Malformed "snapshot too large")
          else
            let rec entries acc k =
              if k = 0 then Ok (List.rev acc)
              else
                let* e = decode_entry r in
                entries (e :: acc) (k - 1)
            in
            let* pending = entries [] n in
            Ok (Snapshot { next_seq; floor; pending })
      | n -> Error (`Malformed (Printf.sprintf "unknown queue tag %d" n))
    in
    let* () = Cursor.Reader.expect_end r in
    Ok (fseq, record)
  in
  Result.to_option result

let record_equal a b = encode_payload ~fseq:0 a = encode_payload ~fseq:0 b

(* --- state folding --- *)

let apply_record st = function
  | Snapshot s -> s
  | Push e ->
      let next_seq = max st.next_seq (e.seq + 1) in
      if e.seq < st.floor || List.exists (fun p -> p.seq = e.seq) st.pending
      then { st with next_seq }
      else { st with next_seq; pending = st.pending @ [ e ] }
  | Ack { upto } ->
      let floor = max st.floor upto in
      {
        st with
        floor;
        pending = List.filter (fun e -> e.seq >= floor) st.pending;
      }
  | Drop { seq } ->
      { st with pending = List.filter (fun e -> e.seq <> seq) st.pending }

let state_of_records records = List.fold_left apply_record empty_state records

(* --- the queue proper --- *)

let magic = "EDLQ"
let version = 1
let default_mac_key = "enclaves-deliver"  (* 16 bytes, public: integrity
                                             only, not secrecy *)

type event = Appended of string | Published of string

type t = {
  buf : Buffer.t;
  mac : Sym_crypto.Siphash.key;
  compact_every : int;
  disk : Backend.t option;
  file : string;
  mutable eio_retries : int;
  mutable st : state;
  mutable nrecords : int;
  mutable next_fseq : int;
  mutable since_snapshot : int;
  mutable resolved : int;  (* records since the snapshot with no pending data *)
  mutable observer : (event -> unit) option;
  (* Degraded-mode switch: with durability off the in-memory buffer
     keeps evolving but neither mirror shape touches the backend. The
     disk image goes stale; re-arming is [set_durable true] followed
     by [compact], which republishes the whole image atomically. *)
  mutable durable : bool;
}

let header () =
  let w = Cursor.Writer.create () in
  Cursor.Writer.raw w magic;
  Cursor.Writer.u8 w version;
  Cursor.Writer.contents w

(* --- disk write-through --- the same discipline as the leader
   journal: the in-memory buffer is authoritative for reads, every
   mutation is mirrored to the backend before returning, transient EIO
   is retried a bounded number of times (both mirror shapes are
   idempotent), [Backend.Crashed] propagates. *)

let max_eio_retries = 8

let with_retry t f =
  let rec go attempt =
    try f ()
    with Backend.Eio _ when attempt < max_eio_retries ->
      t.eio_retries <- t.eio_retries + 1;
      go (attempt + 1)
  in
  go 0

let disk_publish t =
  match t.disk with
  | Some d when t.durable ->
      let bytes = Buffer.contents t.buf in
      let tmp = t.file ^ ".tmp" in
      with_retry t (fun () -> Backend.remove d ~file:tmp);
      with_retry t (fun () -> Backend.pwrite d ~file:tmp ~off:0 bytes);
      with_retry t (fun () -> Backend.fsync d ~file:tmp);
      with_retry t (fun () -> Backend.rename d ~src:tmp ~dst:t.file)
  | _ -> ()

let disk_append t ~off bytes =
  match t.disk with
  | Some d when t.durable ->
      with_retry t (fun () -> Backend.pwrite d ~file:t.file ~off bytes);
      with_retry t (fun () -> Backend.fsync d ~file:t.file)
  | _ -> ()

let create ?(mac_key = default_mac_key) ?(compact_every = 64) ?disk
    ?(file = "queue") ?(durable = true) () =
  if String.length mac_key <> 16 then
    invalid_arg "Queue.create: mac_key must be 16 bytes";
  if compact_every < 1 then
    invalid_arg "Queue.create: compact_every must be positive";
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header ());
  let t =
    {
      buf;
      mac = Sym_crypto.Siphash.key_of_string mac_key;
      compact_every;
      disk;
      file;
      eio_retries = 0;
      st = empty_state;
      nrecords = 0;
      next_fseq = 0;
      since_snapshot = 0;
      resolved = 0;
      observer = None;
      durable;
    }
  in
  disk_publish t;
  t

let set_observer t obs = t.observer <- obs
let set_durable t b = t.durable <- b
let durable t = t.durable
let notify t ev = match t.observer with None -> () | Some f -> f ev

let state t = t.st
let pending t = t.st.pending
let floor t = t.st.floor
let next_seq t = t.st.next_seq
let depth t = List.length t.st.pending
let records t = t.nrecords
let resolved t = t.resolved
let size t = Buffer.length t.buf
let contents t = Buffer.contents t.buf
let eio_retries t = t.eio_retries
let file t = t.file

let append_raw t record =
  let payload = encode_payload ~fseq:t.next_fseq record in
  let w = Cursor.Writer.create () in
  Cursor.Writer.u32 w (String.length payload);
  Cursor.Writer.raw w payload;
  Cursor.Writer.raw w (Sym_crypto.Siphash.hash_to_bytes t.mac payload);
  Buffer.add_string t.buf (Cursor.Writer.contents w);
  t.next_fseq <- t.next_fseq + 1;
  t.nrecords <- t.nrecords + 1;
  t.st <- apply_record t.st record

let rewrite_as_snapshot t =
  let st = t.st in
  Buffer.clear t.buf;
  Buffer.add_string t.buf (header ());
  t.nrecords <- 0;
  t.next_fseq <- 0;
  t.since_snapshot <- 0;
  t.resolved <- 0;
  append_raw t (Snapshot st);
  disk_publish t;
  notify t (Published (Buffer.contents t.buf))

let compact t = rewrite_as_snapshot t

(* [resolves]: the record leaves bytes in the log that carry no
   pending data (counted by [resolved]). *)
let append t ~resolves record =
  let off = Buffer.length t.buf in
  if resolves then t.resolved <- t.resolved + 1;
  append_raw t record;
  t.since_snapshot <- t.since_snapshot + 1;
  if t.since_snapshot > t.compact_every then rewrite_as_snapshot t
  else begin
    let chunk = Buffer.sub t.buf off (Buffer.length t.buf - off) in
    disk_append t ~off chunk;
    notify t (Appended chunk)
  end

let push t ~epoch payload =
  let e = { seq = t.st.next_seq; epoch; payload } in
  (* Below an ack floor that ran ahead of the queue, the entry is
     resolved on arrival: the fold never makes it pending. *)
  append t ~resolves:(e.seq < t.st.floor) (Push e);
  e

let ack t ~upto =
  if upto > t.st.floor then append t ~resolves:true (Ack { upto })

let drop t ~seq =
  if List.exists (fun e -> e.seq = seq) t.st.pending then
    append t ~resolves:true (Drop { seq })

(* --- replay: total on arbitrary bytes --- *)

let replay ?(mac_key = default_mac_key) bytes =
  if String.length mac_key <> 16 then
    invalid_arg "Queue.replay: mac_key must be 16 bytes";
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
    let fseq = ref 0 in
    let stop = ref false in
    while not !stop do
      if len - !pos < 4 then stop := true
      else begin
        let rlen =
          let b i = Char.code bytes.[!pos + i] in
          (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
        in
        if rlen < 0 || rlen > len - !pos - 12 then stop := true
        else begin
          let payload = String.sub bytes (!pos + 4) rlen in
          let sum = String.sub bytes (!pos + 4 + rlen) 8 in
          if
            not
              (String.equal sum (Sym_crypto.Siphash.hash_to_bytes mac payload))
          then stop := true
          else
            match decode_payload payload with
            | Some (s, record) when s = !fseq ->
                records := record :: !records;
                incr fseq;
                pos := !pos + 4 + rlen + 8;
                valid_bytes := !pos
            | Some _ | None -> stop := true
        end
      end
    done;
    let recs = List.rev !records in
    if !valid_bytes = len then (recs, Clean)
    else
      ( recs,
        Damaged
          { valid_records = List.length recs; valid_bytes = !valid_bytes } )
  end

let recover ?(mac_key = default_mac_key) ?compact_every ?disk ?file bytes =
  let records, status = replay ~mac_key bytes in
  let st = state_of_records records in
  let t = create ~mac_key ?compact_every ?disk ?file () in
  t.st <- st;
  rewrite_as_snapshot t;
  (t, st, status)

let load ?mac_key ?compact_every ?(file = "queue") ~disk () =
  let bytes = Option.value ~default:"" (Backend.read disk ~file) in
  recover ?mac_key ?compact_every ~disk ~file bytes
