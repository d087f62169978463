open Byteskit

(* --- bounded EIO retry ---

   Transient EIO is retried a bounded number of times — safe because
   every write shape below is idempotent: an append rewrites the same
   offset, a publish restages the whole image, a vault slot rewrites
   the same slot. [Backend.Crashed] is never caught: a crashed store
   means the process is gone. *)

let max_eio_retries = 8

let retry on_retry f =
  let rec go attempt =
    try f ()
    with Backend.Eio _ when attempt < max_eio_retries ->
      on_retry ();
      go (attempt + 1)
  in
  go 0

let with_retry f = retry ignore f

type event = Appended of string | Published of string

module Mirror = struct
  type t = {
    buf : Buffer.t;
    disk : Backend.t option;
    file : string;
    mutable eio_retries : int;
    (* Degraded-mode switch: with durability off the buffer keeps
       evolving but neither write shape touches the backend. *)
    mutable durable : bool;
    mutable observer : (event -> unit) option;
  }

  let create ?disk file =
    {
      buf = Buffer.create 256;
      disk;
      file;
      eio_retries = 0;
      durable = true;
      observer = None;
    }

  let retry t f = retry (fun () -> t.eio_retries <- t.eio_retries + 1) f

  let notify t ev = match t.observer with None -> () | Some f -> f ev

  (* Incremental append: write the new bytes at their offset and
     fsync. A crash between the two loses at most the chunk's tail. *)
  let append t bytes =
    let off = Buffer.length t.buf in
    Buffer.add_string t.buf bytes;
    (match t.disk with
    | Some d when t.durable ->
        retry t (fun () -> Backend.pwrite d ~file:t.file ~off bytes);
        retry t (fun () -> Backend.fsync d ~file:t.file)
    | _ -> ());
    notify t (Appended bytes)

  (* Full-image publish: stage, fsync, atomic rename. The staging file
     is removed first so a stale longer tmp can never leak a garbage
     tail past the rename. *)
  let publish t bytes =
    Buffer.clear t.buf;
    Buffer.add_string t.buf bytes;
    (match t.disk with
    | Some d when t.durable ->
        let tmp = t.file ^ ".tmp" in
        retry t (fun () -> Backend.remove d ~file:tmp);
        retry t (fun () -> Backend.pwrite d ~file:tmp ~off:0 bytes);
        retry t (fun () -> Backend.fsync d ~file:tmp);
        retry t (fun () -> Backend.rename d ~src:tmp ~dst:t.file)
    | _ -> ());
    notify t (Published bytes)

  let contents t = Buffer.contents t.buf
  let length t = Buffer.length t.buf
  let file t = t.file
  let eio_retries t = t.eio_retries
  let set_durable t b = t.durable <- b
  let durable t = t.durable
  let set_observer t obs = t.observer <- obs
end

type status = Clean | Damaged of { valid_records : int; valid_bytes : int }

let pp_status fmt = function
  | Clean -> Format.pp_print_string fmt "clean"
  | Damaged { valid_records; valid_bytes } ->
      Format.fprintf fmt "damaged (recovered %d records, %d bytes)"
        valid_records valid_bytes

module type CODEC = sig
  type record
  type state

  val magic : string
  val mac_key : string
  val default_file : string
  val default_compact_every : int
  val empty : state
  val encode : Cursor.Writer.t -> record -> unit
  val decode : Cursor.Reader.t -> (record, Cursor.Reader.error) result
  val apply : state -> record -> state
  val snapshot : state -> record
  val resolves : state -> record -> bool
end

let version = 1

module Make (C : CODEC) = struct
  let mac = Sym_crypto.Siphash.key_of_string C.mac_key

  type t = {
    mirror : Mirror.t;
    compact_every : int;
    mutable st : C.state;
    mutable next_seq : int;  (* also the record count: compaction resets it *)
    mutable since_snapshot : int;
    mutable resolved : int;
  }

  let header = C.magic ^ String.make 1 (Char.chr version)

  let encode_payload ~seq record =
    let w = Cursor.Writer.create () in
    Cursor.Writer.u32 w seq;
    C.encode w record;
    Cursor.Writer.contents w

  let decode_payload payload =
    let open Cursor in
    let r = Reader.of_string payload in
    Result.to_option
      (let* seq = Reader.u32 r in
       let* record = C.decode r in
       let* () = Reader.expect_end r in
       Ok (seq, record))

  let record_equal a b = encode_payload ~seq:0 a = encode_payload ~seq:0 b
  let state_of_records records = List.fold_left C.apply C.empty records

  let create ?(compact_every = C.default_compact_every) ?disk
      ?(file = C.default_file) ?(durable = true) () =
    if compact_every < 1 then
      invalid_arg "Log.create: compact_every must be positive";
    let t =
      {
        mirror = Mirror.create ?disk file;
        compact_every;
        st = C.empty;
        next_seq = 0;
        since_snapshot = 0;
        resolved = 0;
      }
    in
    Mirror.set_durable t.mirror durable;
    Mirror.publish t.mirror header;
    t

  (* Frame one record ([u32 len ‖ payload ‖ SipHash(payload)]) and
     fold it into the state; the caller decides where the bytes go. *)
  let frame t record =
    let payload = encode_payload ~seq:t.next_seq record in
    let w = Cursor.Writer.create () in
    Cursor.Writer.u32 w (String.length payload);
    Cursor.Writer.raw w payload;
    Cursor.Writer.raw w (Sym_crypto.Siphash.hash_to_bytes mac payload);
    t.next_seq <- t.next_seq + 1;
    t.st <- C.apply t.st record;
    Cursor.Writer.contents w

  let compact t =
    t.next_seq <- 0;
    t.since_snapshot <- 0;
    t.resolved <- 0;
    let snap = frame t (C.snapshot t.st) in
    Mirror.publish t.mirror (header ^ snap)

  let append t record =
    if C.resolves t.st record then t.resolved <- t.resolved + 1;
    let chunk = frame t record in
    t.since_snapshot <- t.since_snapshot + 1;
    if t.since_snapshot > t.compact_every then compact t
    else Mirror.append t.mirror chunk

  (* Re-arm after a degraded spell: the disk image went stale while
     durability was off, so only a full republish brings it back. *)
  let rearm t =
    Mirror.set_durable t.mirror true;
    try
      compact t;
      true
    with Backend.No_space _ | Backend.Stalled _ ->
      Mirror.set_durable t.mirror false;
      false

  let state t = t.st
  let records t = t.next_seq
  let resolved t = t.resolved
  let size t = Mirror.length t.mirror
  let contents t = Mirror.contents t.mirror
  let file t = Mirror.file t.mirror
  let eio_retries t = Mirror.eio_retries t.mirror
  let set_observer t obs = Mirror.set_observer t.mirror obs
  let set_durable t b = Mirror.set_durable t.mirror b
  let durable t = Mirror.durable t.mirror

  (* Total on arbitrary bytes: walk records in order and stop at the
     first length that overruns the buffer, checksum mismatch,
     malformed payload or out-of-sequence record. *)
  let replay bytes =
    let len = String.length bytes in
    let hlen = String.length header in
    let rec walk pos seq acc =
      let stop () =
        ( List.rev acc,
          if pos = len then Clean
          else Damaged { valid_records = seq; valid_bytes = pos } )
      in
      if len - pos < 4 then stop ()
      else
        let rlen = Int32.to_int (String.get_int32_be bytes pos) land 0xffff_ffff in
        if rlen > len - pos - 12 then stop ()
        else
          let payload = String.sub bytes (pos + 4) rlen in
          let sum = String.sub bytes (pos + 4 + rlen) 8 in
          if sum <> Sym_crypto.Siphash.hash_to_bytes mac payload then stop ()
          else
            match decode_payload payload with
            | Some (s, record) when s = seq ->
                walk (pos + 4 + rlen + 8) (seq + 1) (record :: acc)
            | Some _ | None -> stop ()
    in
    if len >= hlen && String.sub bytes 0 hlen = header then walk hlen 0 []
    else ([], Damaged { valid_records = 0; valid_bytes = 0 })

  let of_state ?compact_every ?disk ?file st =
    let t = create ?compact_every ?disk ?file () in
    t.st <- st;
    compact t;
    t

  let recover ?compact_every ?disk ?file bytes =
    let records, status = replay bytes in
    let st = state_of_records records in
    (of_state ?compact_every ?disk ?file st, st, status)

  let load ?compact_every ?(file = C.default_file) ~disk () =
    let bytes = Option.value ~default:"" (Backend.read disk ~file) in
    recover ?compact_every ~disk ~file bytes
end
