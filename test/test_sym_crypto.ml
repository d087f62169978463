(* Tests for the crypto substrate: SipHash reference vectors, the
   SipHash-PRF CTR keystream, MAC, KDF and AEAD. *)

open Sym_crypto
open Byteskit

let ref_key =
  Hex.decode_exn "000102030405060708090a0b0c0d0e0f"

(* First 16 published SipHash-2-4 vectors: key = 00..0f, message =
   the first [i] bytes of 00 01 02 ..., output little-endian. *)
let siphash_vectors =
  [|
    "310e0edd47db6f72"; "fd67dc93c539f874"; "5a4fa9d909806c0d";
    "2d7efbd796666785"; "b7877127e09427cf"; "8da699cd64557618";
    "cee3fe586e46c9cb"; "37d1018bf50002ab"; "6224939a79f5f593";
    "b0e4a90bdf82009e"; "f3b9dd94c5bb5d7a"; "a7ad6b22462fb3f4";
    "fbe50e86bc8f1e75"; "903d84c02756ea14"; "eef27a8e90ca23f7";
    "e545be4961ca29a1";
  |]

let test_siphash_vectors () =
  let key = Siphash.key_of_string ref_key in
  Array.iteri
    (fun i expected ->
      let msg = String.init i (fun j -> Char.chr j) in
      Alcotest.(check string)
        (Printf.sprintf "vector %d" i)
        expected
        (Hex.encode (Siphash.hash_to_bytes key msg)))
    siphash_vectors

let test_siphash_key_roundtrip () =
  let k = Siphash.key_of_string ref_key in
  Alcotest.(check string) "roundtrip" ref_key (Siphash.key_to_string k);
  Alcotest.check_raises "bad key size"
    (Invalid_argument "Siphash.key_of_string: key must be 16 bytes") (fun () ->
      ignore (Siphash.key_of_string "short"))

let test_siphash_key_sensitivity () =
  let k1 = Siphash.key_of_string ref_key in
  let k2 = Siphash.key_of_string (Hex.decode_exn "100102030405060708090a0b0c0d0e0f") in
  Alcotest.(check bool) "different keys, different output" true
    (Siphash.hash k1 "msg" <> Siphash.hash k2 "msg")

let ctr_key = Siphash.key_of_string ref_key

let test_ctr_roundtrip () =
  let iv = "12345678" in
  let msgs = [ ""; "x"; "hello world"; String.make 1000 'q' ] in
  List.iter
    (fun m ->
      let c = Ctr.transform ctr_key ~iv m in
      Alcotest.(check string) "roundtrip" m (Ctr.transform ctr_key ~iv c);
      if m <> "" then
        Alcotest.(check bool) "ciphertext differs" true (c <> m))
    msgs

let test_ctr_iv_matters () =
  let m = String.make 32 'm' in
  let c1 = Ctr.transform ctr_key ~iv:"00000000" m in
  let c2 = Ctr.transform ctr_key ~iv:"00000001" m in
  Alcotest.(check bool) "different IVs, different streams" true (c1 <> c2)

let test_ctr_keystream_prefix () =
  let long = Ctr.keystream ctr_key ~iv:"abcdefgh" 100 in
  let short = Ctr.keystream ctr_key ~iv:"abcdefgh" 40 in
  Alcotest.(check string) "prefix-consistent" short (String.sub long 0 40)

(* Pinned keystream: word i is SipHash(key, iv || le64 i), computed
   with an independent SipHash-2-4. 20 bytes covers two full words and
   a 4-byte partial tail. *)
let test_ctr_keystream_vector () =
  Alcotest.(check string) "known answer"
    "dda4087d4ce8c3128dbff08634cc8754ed4b2f6a"
    (Hex.encode (Ctr.keystream ctr_key ~iv:"abcdefgh" 20))

let mac_key = Mac.subkeys ref_key

let test_mac_basic () =
  let t = Mac.tag mac_key "message" in
  Alcotest.(check int) "tag size" Mac.tag_size (String.length t);
  Alcotest.(check bool) "verifies" true (Mac.verify mac_key "message" ~tag:t);
  Alcotest.(check bool) "wrong msg" false
    (Mac.verify mac_key "messagf" ~tag:t);
  Alcotest.(check bool) "wrong key" false
    (Mac.verify
       (Mac.subkeys (Kdf.derive ~key:ref_key ~label:"x"))
       "message" ~tag:t);
  Alcotest.(check bool) "truncated tag" false
    (Mac.verify mac_key "message" ~tag:(String.sub t 0 8))

let test_mac_bitflip () =
  let t = Mac.tag mac_key "payload" in
  for i = 0 to Mac.tag_size - 1 do
    let t' = Bytes.of_string t in
    Bytes.set t' i (Char.chr (Char.code t.[i] lxor 1));
    Alcotest.(check bool)
      (Printf.sprintf "flipped byte %d rejected" i)
      false
      (Mac.verify mac_key "payload" ~tag:(Bytes.to_string t'))
  done

let test_kdf_password () =
  let k1 = Kdf.of_password ~user:"alice" ~password:"s3cret" in
  let k2 = Kdf.of_password ~user:"alice" ~password:"s3cret" in
  Alcotest.(check string) "deterministic" k1 k2;
  Alcotest.(check int) "size" Kdf.key_size (String.length k1);
  let k3 = Kdf.of_password ~user:"bob" ~password:"s3cret" in
  Alcotest.(check bool) "user-separated" true (k1 <> k3);
  let k4 = Kdf.of_password ~user:"alice" ~password:"s3cres" in
  Alcotest.(check bool) "password-sensitive" true (k1 <> k4)

let test_kdf_derive () =
  let a = Kdf.derive ~key:ref_key ~label:"a" in
  let b = Kdf.derive ~key:ref_key ~label:"b" in
  Alcotest.(check bool) "label-separated" true (a <> b);
  Alcotest.(check string) "deterministic" a (Kdf.derive ~key:ref_key ~label:"a");
  Alcotest.(check int) "size" Kdf.key_size (String.length a)

let test_key_kinds () =
  let rng = Prng.Splitmix.create 9L in
  let s = Key.fresh Key.Session rng in
  let g = Key.fresh Key.Group rng in
  Alcotest.(check bool) "kinds differ" true (Key.kind s <> Key.kind g);
  Alcotest.(check bool) "materials differ" true (Key.raw s <> Key.raw g);
  let s' = Key.of_raw Key.Session (Key.raw s) in
  Alcotest.(check bool) "equal same material+kind" true (Key.equal s s');
  let g' = Key.of_raw Key.Group (Key.raw s) in
  Alcotest.(check bool) "same material, different kind: unequal" false
    (Key.equal s g')

let test_key_long_term () =
  let pa = Key.long_term ~user:"alice" ~password:"pw" in
  Alcotest.(check bool) "kind" true (Key.kind pa = Key.Long_term);
  Alcotest.(check string) "matches kdf" (Kdf.of_password ~user:"alice" ~password:"pw")
    (Key.raw pa)

let test_key_fingerprint () =
  let rng = Prng.Splitmix.create 10L in
  let k = Key.fresh Key.Session rng in
  Alcotest.(check int) "short" 8 (String.length (Key.fingerprint k));
  Alcotest.(check bool) "not the key" true
    (Key.fingerprint k <> Hex.encode (Key.raw k))

let seal_key rng = Key.fresh Key.Session rng

let test_aead_roundtrip () =
  let rng = Prng.Splitmix.create 20L in
  let key = seal_key rng in
  let iv = Aead.random_iv rng in
  let sealed = Aead.seal ~key ~iv ~ad:"header" "the plaintext" in
  match Aead.open_ ~key ~ad:"header" sealed with
  | Ok p -> Alcotest.(check string) "roundtrip" "the plaintext" p
  | Error `Auth_failure -> Alcotest.fail "authentic frame rejected"

let test_aead_rejects_wrong_key () =
  let rng = Prng.Splitmix.create 21L in
  let key = seal_key rng and key' = seal_key rng in
  let sealed = Aead.seal ~key ~iv:(Aead.random_iv rng) ~ad:"" "secret" in
  match Aead.open_ ~key:key' ~ad:"" sealed with
  | Error `Auth_failure -> ()
  | Ok _ -> Alcotest.fail "wrong key accepted"

let test_aead_rejects_wrong_ad () =
  let rng = Prng.Splitmix.create 22L in
  let key = seal_key rng in
  let sealed = Aead.seal ~key ~iv:(Aead.random_iv rng) ~ad:"ctx-a" "secret" in
  match Aead.open_ ~key ~ad:"ctx-b" sealed with
  | Error `Auth_failure -> ()
  | Ok _ -> Alcotest.fail "context confusion accepted"

let test_aead_rejects_tamper () =
  let rng = Prng.Splitmix.create 23L in
  let key = seal_key rng in
  let sealed = Aead.seal ~key ~iv:(Aead.random_iv rng) ~ad:"" "secret bytes" in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor 0x80));
    Bytes.to_string b
  in
  let tampered_ct = { sealed with Aead.ciphertext = flip sealed.Aead.ciphertext 0 } in
  let tampered_iv = { sealed with Aead.iv = flip sealed.Aead.iv 3 } in
  let tampered_tag = { sealed with Aead.tag = flip sealed.Aead.tag 5 } in
  List.iter
    (fun (name, s) ->
      match Aead.open_ ~key ~ad:"" s with
      | Error `Auth_failure -> ()
      | Ok _ -> Alcotest.fail (name ^ " accepted"))
    [ ("tampered ciphertext", tampered_ct);
      ("tampered iv", tampered_iv);
      ("tampered tag", tampered_tag) ]

let test_aead_encode_roundtrip () =
  let rng = Prng.Splitmix.create 24L in
  let key = seal_key rng in
  let sealed = Aead.seal ~key ~iv:(Aead.random_iv rng) ~ad:"ad" "data" in
  match Aead.decode (Aead.encode sealed) with
  | Ok s ->
      Alcotest.(check string) "iv" sealed.Aead.iv s.Aead.iv;
      Alcotest.(check string) "ct" sealed.Aead.ciphertext s.Aead.ciphertext;
      Alcotest.(check string) "tag" sealed.Aead.tag s.Aead.tag
  | Error e -> Alcotest.fail ("decode failed: " ^ e)

let test_aead_decode_garbage () =
  List.iter
    (fun s ->
      match Aead.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage decoded")
    [ ""; "xx"; String.make 3 '\xff' ]

(* Sealing 1 KiB allocates its outputs, the MAC input and, per
   keystream word, [hash2]'s boxed counter and result: nothing per
   SipHash round and no key schedule. *)
let test_aead_seal_allocation () =
  let key = Key.of_raw Key.Session ref_key in
  let msg = String.make 1024 'p' in
  ignore (Aead.seal ~key ~iv:"12345678" ~ad:"ad" msg);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Aead.seal ~key ~iv:"12345678" ~ad:"ad" msg));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "seal 1 KiB: %.0f minor words <= 2048" words)
    true (words <= 2048.)

(* The AEAD composition rebuilt from the public primitives: CTR under
   the "aead-encrypt" subkey, then a MAC under the "aead-mac" subkey
   over the length-prefixed iv, ad and ciphertext. *)
let reference_seal ~raw ~iv ~ad m =
  let ciphertext =
    Ctr.transform
      (Siphash.key_of_string (Kdf.derive ~key:raw ~label:"aead-encrypt"))
      ~iv m
  in
  let w = Cursor.Writer.create () in
  List.iter (Cursor.Writer.bytes w) [ iv; ad; ciphertext ];
  let tag =
    Mac.tag
      (Mac.subkeys (Kdf.derive ~key:raw ~label:"aead-mac"))
      (Cursor.Writer.contents w)
  in
  { Aead.iv; ciphertext; tag }

let le64 x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 x;
  Bytes.to_string b

let qcheck_tests =
  let key16 = QCheck.string_of_size (QCheck.Gen.return 16) in
  [
    QCheck.Test.make ~name:"siphash hash2 = hash of le64 a ^ le64 b"
      ~count:200
      QCheck.(triple key16 int64 int64)
      (fun (k, a, b) ->
        let k = Siphash.key_of_string k in
        Siphash.hash2 k a b = Siphash.hash k (le64 a ^ le64 b));
    QCheck.Test.make ~name:"ctr involutive" ~count:200
      QCheck.(pair key16 string)
      (fun (k, m) ->
        let c = Siphash.key_of_string k in
        Ctr.transform c ~iv:"00000000" (Ctr.transform c ~iv:"00000000" m) = m);
    QCheck.Test.make ~name:"mac verifies own tag" ~count:200
      QCheck.(pair key16 string)
      (fun (k, m) ->
        let k = Mac.subkeys k in
        Mac.verify k m ~tag:(Mac.tag k m));
    QCheck.Test.make ~name:"aead seal = reference composition" ~count:200
      QCheck.(quad key16 (string_of_size (QCheck.Gen.return 8)) string string)
      (fun (raw, iv, ad, m) ->
        Aead.seal ~key:(Key.of_raw Key.Group raw) ~iv ~ad m
        = reference_seal ~raw ~iv ~ad m);
    QCheck.Test.make ~name:"aead roundtrip" ~count:200
      QCheck.(triple key16 string string)
      (fun (k, ad, m) ->
        let key = Key.of_raw Key.Session k in
        let sealed = Aead.seal ~key ~iv:"87654321" ~ad m in
        Aead.open_ ~key ~ad sealed = Ok m);
    QCheck.Test.make ~name:"aead encode/decode" ~count:200
      QCheck.(pair key16 string)
      (fun (k, m) ->
        let key = Key.of_raw Key.Session k in
        let sealed = Aead.seal ~key ~iv:"11223344" ~ad:"x" m in
        match Aead.decode (Aead.encode sealed) with
        | Ok s -> Aead.open_ ~key ~ad:"x" s = Ok m
        | Error _ -> false);
  ]

let suite =
  [
    ( "sym_crypto",
      [
        Alcotest.test_case "siphash reference vectors" `Quick test_siphash_vectors;
        Alcotest.test_case "siphash key roundtrip" `Quick test_siphash_key_roundtrip;
        Alcotest.test_case "siphash key sensitivity" `Quick test_siphash_key_sensitivity;
        Alcotest.test_case "ctr roundtrip" `Quick test_ctr_roundtrip;
        Alcotest.test_case "ctr iv matters" `Quick test_ctr_iv_matters;
        Alcotest.test_case "ctr keystream prefix" `Quick test_ctr_keystream_prefix;
        Alcotest.test_case "ctr keystream vector" `Quick test_ctr_keystream_vector;
        Alcotest.test_case "mac basic" `Quick test_mac_basic;
        Alcotest.test_case "mac bitflip" `Quick test_mac_bitflip;
        Alcotest.test_case "kdf password" `Quick test_kdf_password;
        Alcotest.test_case "kdf derive" `Quick test_kdf_derive;
        Alcotest.test_case "key kinds" `Quick test_key_kinds;
        Alcotest.test_case "key long-term" `Quick test_key_long_term;
        Alcotest.test_case "key fingerprint" `Quick test_key_fingerprint;
        Alcotest.test_case "aead roundtrip" `Quick test_aead_roundtrip;
        Alcotest.test_case "aead wrong key" `Quick test_aead_rejects_wrong_key;
        Alcotest.test_case "aead wrong ad" `Quick test_aead_rejects_wrong_ad;
        Alcotest.test_case "aead tamper" `Quick test_aead_rejects_tamper;
        Alcotest.test_case "aead encode roundtrip" `Quick test_aead_encode_roundtrip;
        Alcotest.test_case "aead decode garbage" `Quick test_aead_decode_garbage;
        Alcotest.test_case "aead seal allocation" `Quick test_aead_seal_allocation;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
  ]
