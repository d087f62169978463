open Byteskit

type sealed = { iv : string; ciphertext : string; tag : string }

let mac_input ~iv ~ad ~ciphertext =
  (* Sized up front (three u32 length prefixes): no buffer regrowth. *)
  let n = String.length iv + String.length ad + String.length ciphertext in
  let w = Cursor.Writer.create ~capacity:(12 + n) () in
  Cursor.Writer.bytes w iv;
  Cursor.Writer.bytes w ad;
  Cursor.Writer.bytes w ciphertext;
  Cursor.Writer.contents w

let seal ~key ~iv ~ad plaintext =
  let ciphertext = Ctr.transform (Key.enc key) ~iv plaintext in
  let tag = Mac.tag (Key.mac key) (mac_input ~iv ~ad ~ciphertext) in
  { iv; ciphertext; tag }

let open_ ~key ~ad { iv; ciphertext; tag } =
  if
    String.length iv = Ctr.iv_size
    && Mac.verify (Key.mac key) (mac_input ~iv ~ad ~ciphertext) ~tag
  then Ok (Ctr.transform (Key.enc key) ~iv ciphertext)
  else Error `Auth_failure

let random_iv rng =
  Bytes.unsafe_to_string (Prng.Splitmix.next_bytes rng Ctr.iv_size)

let encode { iv; ciphertext; tag } =
  let w = Cursor.Writer.create () in
  Cursor.Writer.bytes w iv;
  Cursor.Writer.bytes w ciphertext;
  Cursor.Writer.bytes w tag;
  Cursor.Writer.contents w

let decode s =
  let open Cursor in
  let r = Reader.of_string s in
  let result =
    let* iv = Reader.bytes r in
    let* ciphertext = Reader.bytes r in
    let* tag = Reader.bytes r in
    let* () = Reader.expect_end r in
    Ok { iv; ciphertext; tag }
  in
  Result.map_error (Format.asprintf "%a" Reader.pp_error) result
