type key = { k0 : int64; k1 : int64 }

let key_of_string s =
  if String.length s <> 16 then
    invalid_arg "Siphash.key_of_string: key must be 16 bytes";
  { k0 = Byteskit.Bytes_ops.get_u64_le s 0; k1 = Byteskit.Bytes_ops.get_u64_le s 8 }

let key_to_string { k0; k1 } =
  let b = Bytes.create 16 in
  Byteskit.Bytes_ops.set_u64_le b 0 k0;
  Byteskit.Bytes_ops.set_u64_le b 8 k1;
  Bytes.unsafe_to_string b

(* SipHash-2-4 over the message [le64 a ‖ le64 b ‖ msg] if [prefix],
   else over [msg] alone: [hash] feeds it a string, [hash2] two words.
   The state lives in local mutable int64s and the SipRound is written
   out once, inside the loop that runs the two compression rounds per
   message word and the four finalization rounds: without flambda, a
   round function threading an int64 tuple would box on every round. *)
let sip { k0; k1 } ~prefix a b msg =
  let open Int64 in
  let v0 = ref (logxor k0 0x736f6d6570736575L) in
  let v1 = ref (logxor k1 0x646f72616e646f6dL) in
  let v2 = ref (logxor k0 0x6c7967656e657261L) in
  let v3 = ref (logxor k1 0x7465646279746573L) in
  let len = String.length msg in
  let n_pre = if prefix then 2 else 0 in
  let n_full = n_pre + (len / 8) in
  (* Final word: remaining bytes, zero padding, length in the top byte. *)
  let last = ref (shift_left (of_int (((8 * n_pre) + len) land 0xFF)) 56) in
  for i = len land lnot 7 to len - 1 do
    let byte = of_int (Char.code (String.unsafe_get msg i)) in
    last := logor !last (shift_left byte (8 * (i land 7)))
  done;
  (* Words 0 .. n_full are compressed; word n_full + 1 finalizes. *)
  for w = 0 to n_full + 1 do
    let final = w > n_full in
    let m =
      if w < n_pre then if w = 0 then a else b
      else if w < n_full then String.get_int64_le msg (8 * (w - n_pre))
      else !last
    in
    if final then v2 := logxor !v2 0xFFL else v3 := logxor !v3 m;
    for _ = 1 to if final then 4 else 2 do
      v0 := add !v0 !v1;
      v1 := logor (shift_left !v1 13) (shift_right_logical !v1 51);
      v1 := logxor !v1 !v0;
      v0 := logor (shift_left !v0 32) (shift_right_logical !v0 32);
      v2 := add !v2 !v3;
      v3 := logor (shift_left !v3 16) (shift_right_logical !v3 48);
      v3 := logxor !v3 !v2;
      v0 := add !v0 !v3;
      v3 := logor (shift_left !v3 21) (shift_right_logical !v3 43);
      v3 := logxor !v3 !v0;
      v2 := add !v2 !v1;
      v1 := logor (shift_left !v1 17) (shift_right_logical !v1 47);
      v1 := logxor !v1 !v2;
      v2 := logor (shift_left !v2 32) (shift_right_logical !v2 32)
    done;
    if not final then v0 := logxor !v0 m
  done;
  logxor (logxor !v0 !v1) (logxor !v2 !v3)

let hash key msg = sip key ~prefix:false 0L 0L msg
let hash2 key a b = sip key ~prefix:true a b ""

let hash_to_bytes key msg =
  let b = Bytes.create 8 in
  Byteskit.Bytes_ops.set_u64_le b 0 (hash key msg);
  Bytes.unsafe_to_string b
