(* Tests for hex, byte operations, and the binary cursor. *)

open Byteskit

let test_hex_roundtrip () =
  let cases = [ ""; "\x00"; "hello"; "\xff\x00\xab"; String.make 64 '\x7f' ] in
  List.iter
    (fun s ->
      Alcotest.(check string) "roundtrip" s (Hex.decode_exn (Hex.encode s)))
    cases

let test_hex_known () =
  Alcotest.(check string) "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode upper" "\x00\xff\x10"
    (Hex.decode_exn "00FF10")

let test_hex_errors () =
  (match Hex.decode "abc" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "odd length accepted");
  match Hex.decode "zz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-hex accepted"

let test_ct_equal () =
  Alcotest.(check bool) "equal" true (Bytes_ops.ct_equal "abc" "abc");
  Alcotest.(check bool) "unequal" false (Bytes_ops.ct_equal "abc" "abd");
  Alcotest.(check bool) "length" false (Bytes_ops.ct_equal "abc" "ab");
  Alcotest.(check bool) "empty" true (Bytes_ops.ct_equal "" "")

let test_endian () =
  let b = Bytes.create 8 in
  Bytes_ops.set_u64_le b 0 0x0102030405060708L;
  Alcotest.(check string) "le bytes" "\x08\x07\x06\x05\x04\x03\x02\x01"
    (Bytes.to_string b);
  Alcotest.(check int64) "le read" 0x0102030405060708L
    (Bytes_ops.get_u64_le (Bytes.to_string b) 0);
  let b = Bytes.create 4 in
  Bytes_ops.set_u32_be b 0 0xDEADBEEF;
  Alcotest.(check int) "be read" 0xDEADBEEF
    (Bytes_ops.get_u32_be (Bytes.to_string b) 0);
  let b = Bytes.create 2 in
  Bytes_ops.set_u16_be b 0 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Bytes_ops.get_u16_be (Bytes.to_string b) 0)

let test_pad_to () =
  Alcotest.(check int) "empty pads to one block" 16
    (String.length (Bytes_ops.pad_to ~block:16 ""));
  Alcotest.(check int) "partial pads up" 16
    (String.length (Bytes_ops.pad_to ~block:16 "abc"));
  Alcotest.(check int) "exact unchanged" 16
    (String.length (Bytes_ops.pad_to ~block:16 (String.make 16 'x')));
  Alcotest.(check string) "content preserved" "abc"
    (String.sub (Bytes_ops.pad_to ~block:8 "abc") 0 3)

let test_cursor_roundtrip () =
  let w = Cursor.Writer.create () in
  Cursor.Writer.u8 w 0xAB;
  Cursor.Writer.u16 w 0x1234;
  Cursor.Writer.u32 w 0xDEADBEEF;
  Cursor.Writer.u64 w 0x0102030405060708L;
  Cursor.Writer.bytes w "payload";
  Cursor.Writer.raw w "xx";
  let s = Cursor.Writer.contents w in
  let r = Cursor.Reader.of_string s in
  let get = function Ok v -> v | Error _ -> Alcotest.fail "decode error" in
  Alcotest.(check int) "u8" 0xAB (get (Cursor.Reader.u8 r));
  Alcotest.(check int) "u16" 0x1234 (get (Cursor.Reader.u16 r));
  Alcotest.(check int) "u32" 0xDEADBEEF (get (Cursor.Reader.u32 r));
  Alcotest.(check int64) "u64" 0x0102030405060708L (get (Cursor.Reader.u64 r));
  Alcotest.(check string) "bytes" "payload" (get (Cursor.Reader.bytes r));
  Alcotest.(check string) "raw" "xx" (get (Cursor.Reader.raw r 2));
  Alcotest.(check bool) "end" true (Result.is_ok (Cursor.Reader.expect_end r))

let test_cursor_truncation () =
  let r = Cursor.Reader.of_string "\x00" in
  (match Cursor.Reader.u16 r with
  | Error (`Truncated _) -> ()
  | _ -> Alcotest.fail "expected truncation");
  (* length prefix claims more data than available *)
  let w = Cursor.Writer.create () in
  Cursor.Writer.u32 w 100;
  Cursor.Writer.raw w "short";
  let r = Cursor.Reader.of_string (Cursor.Writer.contents w) in
  match Cursor.Reader.bytes r with
  | Error (`Truncated _) -> ()
  | _ -> Alcotest.fail "expected truncation on bogus length"

let test_cursor_trailing () =
  let r = Cursor.Reader.of_string "ab" in
  (match Cursor.Reader.expect_end r with
  | Error (`Malformed _) -> ()
  | _ -> Alcotest.fail "expected trailing-bytes error");
  Alcotest.(check string) "rest" "ab" (Cursor.Reader.rest r);
  Alcotest.(check bool) "now empty" true
    (Result.is_ok (Cursor.Reader.expect_end r))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"hex roundtrip" ~count:300 QCheck.string (fun s ->
        Hex.decode_exn (Hex.encode s) = s);
    QCheck.Test.make ~name:"ct_equal agrees with (=)" ~count:300
      QCheck.(pair small_string small_string)
      (fun (a, b) -> Bytes_ops.ct_equal a b = (a = b));
    QCheck.Test.make ~name:"writer/reader bytes roundtrip" ~count:300
      QCheck.string (fun s ->
        let w = Cursor.Writer.create () in
        Cursor.Writer.bytes w s;
        let r = Cursor.Reader.of_string (Cursor.Writer.contents w) in
        match Cursor.Reader.bytes r with Ok s' -> s' = s | Error _ -> false);
    QCheck.Test.make ~name:"pad_to multiple" ~count:300
      QCheck.(pair (int_range 1 64) string)
      (fun (block, s) ->
        String.length (Bytes_ops.pad_to ~block s) mod block = 0);
  ]

let suite =
  [
    ( "byteskit",
      [
        Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
        Alcotest.test_case "hex known vectors" `Quick test_hex_known;
        Alcotest.test_case "hex errors" `Quick test_hex_errors;
        Alcotest.test_case "ct_equal" `Quick test_ct_equal;
        Alcotest.test_case "endian helpers" `Quick test_endian;
        Alcotest.test_case "pad_to" `Quick test_pad_to;
        Alcotest.test_case "cursor roundtrip" `Quick test_cursor_roundtrip;
        Alcotest.test_case "cursor truncation" `Quick test_cursor_truncation;
        Alcotest.test_case "cursor trailing bytes" `Quick test_cursor_trailing;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
  ]
